// A simulated processor: the workload-facing API (read/write/lock/unlock/
// barrier/compute) plus the per-node hardware a protocol drives (cache,
// write buffer, coalescing buffer, outstanding-transaction table).
//
// Two front ends share this class. The default (fiber) front end runs
// workload code on a fiber owned by this class: an L1 hit retires through
// Protocol::l1_hit (no op); other accesses drive a protocol op, which may
// suspend the fiber until the event engine completes it. The trace front end
// (trace::ReplayCpu) overrides the virtual seam — start/finished/
// quantum_yield/resume_execution — and advances by decoding trace records
// instead of switching a fiber; the engine-facing contract (block/poke/
// local clock, the reusable ResumeEvent) is identical in both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/coalescing_buffer.hpp"
#include "cache/ot_table.hpp"
#include "cache/write_buffer.hpp"
#include "proto/cpu_op.hpp"
#include "sim/event.hpp"
#include "sim/fiber.hpp"
#include "sim/types.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"

namespace lrc::core {

class Machine;

class Cpu {
 public:
  Cpu(Machine& m, NodeId id);
  virtual ~Cpu();

  NodeId id() const { return id_; }
  unsigned nprocs() const;

  // ---- Workload API (fiber front end) ------------------------------------

  /// Timed shared-memory read. T must be trivially copyable and must not
  /// straddle a cache line.
  template <typename T>
  T read(Addr a);

  /// Timed shared-memory write.
  template <typename T>
  void write(Addr a, const T& v);

  /// Charges `n` cycles of local computation.
  void compute(Cycle n);

  /// Synchronization. Locks are exclusive queue locks; barriers gather all
  /// processors in the machine.
  void lock(SyncId s);
  void unlock(SyncId s);
  void barrier(SyncId s);

  /// Consistency fence: forces buffered invalidations to be processed now
  /// (paper §4.2's remedy for racy programs under lazy protocols). Free
  /// under the eager protocols.
  void fence();

  // ---- State the protocols drive ----------------------------------------

  Cycle now() const { return now_; }
  cache::Hierarchy& dcache() { return cache_; }
  const cache::Hierarchy& dcache() const { return cache_; }
  cache::WriteBuffer& wb() { return wb_; }
  cache::CoalescingBuffer& cb() { return cb_; }
  cache::OtTable& ot() { return ot_; }
  stats::CpuBreakdown& breakdown() { return bd_; }
  const stats::CpuBreakdown& breakdown() const { return bd_; }

  /// Latency distribution of the individual stalls in each category
  /// (read-miss waits, write stalls, synchronization waits).
  const stats::Histogram& stall_hist(stats::StallKind k) const {
    return stall_hist_[static_cast<std::size_t>(k)];
  }

  /// Advances the local clock by `n` busy (kCpu) cycles; yields to the
  /// engine if the run-ahead quantum is exhausted. Inline: every hit and
  /// compute record ends here.
  void tick(Cycle n) {
    bd_[stats::StallKind::kCpu] += n;
    now_ += n;
    hits_since_yield_ += n;
    if (hits_since_yield_ >= quantum_) quantum_yield();
  }

  /// Blocks the fiber, charging subsequent cycles to `k`, until a poke
  /// arrives. Callers wrap this in a `while (!condition)` loop.
  void block(stats::StallKind k);

  /// Runs a protocol op to completion, translating each Wait suspension
  /// into block(). The fiber front end's bridge to the coroutine protocol
  /// entry points.
  void drive(proto::CpuOp op) {
    struct Driving {  // exposes `op` to ~Cpu while it is in flight
      proto::CpuOp*& slot;
      ~Driving() { slot = nullptr; }
    } driving{driving_ = &op};
    while (!op.step()) block(op.wait_kind());
  }

  /// Wakes a blocked processor no earlier than `t` (engine/event context).
  void poke(Cycle t);

  /// True while the processor is suspended in a Wait.
  bool blocked() const { return blocked_; }

  /// Write-through acknowledgements still outstanding (LRC drain condition).
  unsigned wt_outstanding = 0;

  // ---- Machine plumbing --------------------------------------------------

  /// Fiber front end: creates the workload fiber, scheduled at cycle 0.
  /// Front ends that carry their own workload (trace replay) override and
  /// ignore `body`.
  virtual void start(std::function<void(Cpu&)> body);
  virtual bool finished() const { return fiber_ && fiber_->finished(); }
  /// True for front ends that re-issue a recorded stream (no workload body,
  /// no checker, no capture).
  virtual bool is_replay() const { return false; }
  Machine& machine() { return m_; }

 protected:
  /// Hands control back to the workload after on_resume's bookkeeping.
  /// Fiber front end: resume the fiber. Replay: run the decode loop.
  virtual void resume_execution();

  /// Engine re-entry when the run-ahead quantum is exhausted (called from
  /// tick). The fiber front end suspends here; replay defers the yield to
  /// the end of the current op (provably identical: ops never act after
  /// their final tick).
  virtual void quantum_yield();

  /// Marks this processor blocked under `k` without suspending anything
  /// (the caller suspends however its front end does).
  void note_blocked(stats::StallKind k) {
    blocked_ = true;
    block_kind_ = k;
    block_start_ = now_;
    hits_since_yield_ = 0;
  }

  /// Schedules the reusable resume event at the local clock (quantum
  /// re-entry) — shared by both front ends' quantum_yield.
  void schedule_quantum_resume();

  /// Schedules the initial resume at cycle 0 (both front ends' start()).
  void schedule_start();

  Machine& m_;

 private:
  friend class Machine;

  // The engine wakes a Cpu through this caller-owned reusable event: one
  // per processor, zero allocation, never more than one pending (the
  // resume_scheduled_ guard and the start/block protocol ensure that).
  class ResumeEvent final : public sim::Event {
   public:
    explicit ResumeEvent(Cpu& cpu) : cpu_(cpu) {}
    void fire(Cycle t) override { cpu_.on_resume(t); }

   private:
    Cpu& cpu_;
  };
  enum class ResumeMode : std::uint8_t { kStart, kQuantum, kPoke };

  void run_body();
  void on_resume(Cycle t);

  NodeId id_;
  Cycle now_ = 0;
  stats::CpuBreakdown bd_;

  cache::Hierarchy cache_;
  cache::WriteBuffer wb_;
  cache::CoalescingBuffer cb_;
  cache::OtTable ot_;

  std::unique_ptr<sim::Fiber> fiber_;
  std::function<void(Cpu&)> body_;
  proto::CpuOp* driving_ = nullptr;  // op on the fiber stack; see ~Cpu
  ResumeEvent resume_event_{*this};
  ResumeMode resume_mode_ = ResumeMode::kStart;
  bool blocked_ = false;
  bool resume_scheduled_ = false;
  stats::StallKind block_kind_ = stats::StallKind::kCpu;
  Cycle block_start_ = 0;
  Cycle hits_since_yield_ = 0;
  const Cycle quantum_;  // SystemParams::runahead_quantum
  std::array<stats::Histogram, stats::kStallKinds> stall_hist_;
};

}  // namespace lrc::core
