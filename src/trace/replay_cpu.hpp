// Fiber-free trace replay front end. ReplayCpu implements core::Cpu's
// engine-facing contract (block/poke/local clock, the reusable resume
// event) but advances by decoding the next trace record instead of
// switching a fiber: no sim::Fiber, no asm context switch, no per-CPU
// stack. An L1 hit retires through Protocol::l1_hit; other records step the
// fiber front end's CpuOp coroutines directly from engine events.
//
// Timing is bit-identical to the fiber run the trace was captured from.
// The only structural difference is the run-ahead quantum yield: a fiber
// suspends inside tick(), the replayer defers to the end of the current
// record. The two are indistinguishable because the final tick() of every
// op and of l1_hit is its last action (no sends or waits follow it), and
// the deferred resume event carries the same timestamp and mode.
#pragma once

#include <functional>
#include <string>

#include "core/cpu.hpp"
#include "core/machine.hpp"
#include "proto/cpu_op.hpp"
#include "trace/reader.hpp"

namespace lrc::trace {

class ReplayCpu final : public core::Cpu {
 public:
  /// Opens `<dir>/cpuNNNN.lrct` for processor `id`.
  ReplayCpu(core::Machine& m, NodeId id, const std::string& dir);

  /// Replay carries its own workload; `body` must be null.
  void start(std::function<void(core::Cpu&)> body) override;
  bool finished() const override { return finished_; }
  bool is_replay() const override { return true; }

  /// Machine factory for a capture directory (validates meta.txt against
  /// the machine's processor count at construction time).
  static core::Machine::CpuFactory factory(std::string dir);

 protected:
  void resume_execution() override { step_loop(); }

  /// Defers the engine re-entry to the end of the current record (header
  /// comment); the resume event itself is identical to the fiber path's.
  void quantum_yield() override {
    schedule_quantum_resume();
    yield_pending_ = true;
  }

 private:
  void step_loop();

  Reader reader_;
  proto::CpuOp op_;
  bool op_active_ = false;
  bool yield_pending_ = false;
  bool stream_done_ = false;
  bool finalized_ = false;
  bool finished_ = false;
};

}  // namespace lrc::trace
