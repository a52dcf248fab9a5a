#include "trace/replay_cpu.hpp"

#include <cassert>
#include <stdexcept>

#include "core/machine.hpp"
#include "proto/protocol.hpp"

namespace lrc::trace {

ReplayCpu::ReplayCpu(core::Machine& m, NodeId id, const std::string& dir)
    : core::Cpu(m, id), reader_(dir + "/" + stream_name(id)) {
  if (reader_.cpu() != id || reader_.nprocs() != m.nprocs()) {
    throw std::runtime_error(
        "trace replay: " + dir + "/" + stream_name(id) + " is for cpu " +
        std::to_string(reader_.cpu()) + "/" + std::to_string(reader_.nprocs()) +
        " procs, machine wants cpu " + std::to_string(id) + "/" +
        std::to_string(m.nprocs()));
  }
}

core::Machine::CpuFactory ReplayCpu::factory(std::string dir) {
  return [dir = std::move(dir)](core::Machine& m, NodeId p) {
    if (p == 0) {
      const TraceMeta meta = read_meta(dir);
      if (meta.nprocs != m.nprocs()) {
        throw std::runtime_error(
            "trace replay: " + dir + " was captured at " +
            std::to_string(meta.nprocs) + " procs, machine has " +
            std::to_string(m.nprocs()));
      }
    }
    return std::unique_ptr<core::Cpu>(new ReplayCpu(m, p, dir));
  };
}

void ReplayCpu::start(std::function<void(core::Cpu&)> body) {
  if (body) {
    throw std::invalid_argument(
        "trace replay: pass a null body to Machine::run");
  }
  schedule_start();
}

void ReplayCpu::step_loop() {
  auto& proto = m_.protocol();
  while (true) {
    if (op_active_) {
      if (!op_.step()) {
        // The deferred-yield invariant: an op that exhausted the quantum is
        // past its final tick and cannot suspend again.
        assert(!yield_pending_);
        note_blocked(op_.wait_kind());
        return;  // a poke resumes us here
      }
      op_active_ = false;
      op_.reset();
      if (finalized_) {
        finished_ = true;
        return;
      }
    }
    if (yield_pending_) {
      yield_pending_ = false;
      return;  // quantum resume already scheduled at the local clock
    }
    if (stream_done_) {
      finalized_ = true;
      op_ = proto.finalize(*this);
      op_active_ = true;
      continue;
    }
    Record r;
    if (!reader_.next(r)) {
      stream_done_ = true;
      continue;
    }
    switch (r.op) {
      case Op::kRead:
        if (proto.l1_hit(*this, r.addr, r.bytes, /*write=*/false)) break;
        op_ = proto.cpu_read(*this, r.addr, r.bytes);
        op_active_ = true;
        break;
      case Op::kWrite:
        if (proto.l1_hit(*this, r.addr, r.bytes, /*write=*/true)) break;
        op_ = proto.cpu_write(*this, r.addr, r.bytes);
        op_active_ = true;
        break;
      case Op::kCompute:
        tick(r.arg);
        break;
      case Op::kLock:
        op_ = proto.acquire(*this, static_cast<SyncId>(r.arg));
        op_active_ = true;
        break;
      case Op::kUnlock:
        op_ = proto.release(*this, static_cast<SyncId>(r.arg));
        op_active_ = true;
        break;
      case Op::kBarrier:
        op_ = proto.barrier(*this, static_cast<SyncId>(r.arg));
        op_active_ = true;
        break;
      case Op::kFence:
        op_ = proto.fence(*this);
        op_active_ = true;
        break;
      case Op::kEnd:
        break;  // unreachable: next() returns false at kEnd
    }
  }
}

}  // namespace lrc::trace
