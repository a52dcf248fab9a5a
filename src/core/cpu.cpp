#include "core/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "check/hooks.hpp"
#include "core/access_log.hpp"
#include "core/machine.hpp"
#include "proto/protocol.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::core {

Cpu::Cpu(Machine& m, NodeId id)
    : m_(m),
      id_(id),
      cache_(m.params().cache, m.params().cache_bytes, m.params().line_bytes,
             id, m.params().seed),
      wb_(m.params().write_buffer_entries),
      cb_(m.params().coalescing_entries),
      quantum_(m.params().runahead_quantum) {
  resume_event_.set_mc_actor(id, /*resumes_fiber=*/true);
}

Cpu::~Cpu() {
  // A run that unwinds mid-flight (a protocol error, a checker violation)
  // abandons the fiber inside drive(); its stack is freed without
  // unwinding, so release the suspended op's coroutine frames here.
  if (driving_ != nullptr) driving_->reset();
}

unsigned Cpu::nprocs() const { return m_.nprocs(); }

void Cpu::compute(Cycle n) {
  if (AccessLog* log = m_.access_log()) log->on_compute(id_, n);
  tick(n);
}

void Cpu::fence() {
  if (AccessLog* log = m_.access_log()) {
    log->on_sync(id_, AccessLog::SyncOp::kFence, 0);
  }
  drive(m_.protocol().fence(*this));
}

// Checker hooks bracket the protocol calls so the host-order sequence of
// hook firings matches the simulated happens-before order: a release hook
// runs before the lock can be granted elsewhere, and an acquire hook runs
// only after the grant came back to this fiber.
void Cpu::lock(SyncId s) {
  if (AccessLog* log = m_.access_log()) {
    log->on_sync(id_, AccessLog::SyncOp::kLock, s);
  }
  drive(m_.protocol().acquire(*this, s));
  LRCSIM_HOOK(m_, on_acquire(id_, s));
}
void Cpu::unlock(SyncId s) {
  if (AccessLog* log = m_.access_log()) {
    log->on_sync(id_, AccessLog::SyncOp::kUnlock, s);
  }
  LRCSIM_HOOK(m_, on_release(id_, s));
  drive(m_.protocol().release(*this, s));
  LRCSIM_HOOK(m_, on_release_drained(*this, "unlock"));
}
void Cpu::barrier(SyncId s) {
  if (AccessLog* log = m_.access_log()) {
    log->on_sync(id_, AccessLog::SyncOp::kBarrier, s);
  }
  LRCSIM_HOOK(m_, on_barrier_arrive(id_, s));
  drive(m_.protocol().barrier(*this, s));
  LRCSIM_HOOK(m_, on_release_drained(*this, "barrier"));
  LRCSIM_HOOK(m_, on_barrier_done(id_, s));
}

void Cpu::schedule_quantum_resume() {
  hits_since_yield_ = 0;
  resume_scheduled_ = true;
  resume_mode_ = ResumeMode::kQuantum;
  m_.engine().schedule_external(now_, resume_event_);
}

void Cpu::quantum_yield() {
  // Re-enter the engine so messages timestamped before our run-ahead horizon
  // get processed; we resume at our own local time.
  schedule_quantum_resume();
  sim::Fiber::yield();
}

void Cpu::block(stats::StallKind k) {
  assert(sim::Fiber::current() == fiber_.get());
  note_blocked(k);
  sim::Fiber::yield();
}

void Cpu::poke(Cycle t) {
  if (!blocked_ || resume_scheduled_) return;
  resume_scheduled_ = true;
  resume_mode_ = ResumeMode::kPoke;
  m_.engine().schedule_external(std::max(t, now_), resume_event_);
}

void Cpu::on_resume(Cycle t) {
  switch (resume_mode_) {
    case ResumeMode::kStart:
      resume_execution();
      return;
    case ResumeMode::kQuantum:
      resume_scheduled_ = false;
      now_ = std::max(now_, t);
      resume_execution();
      return;
    case ResumeMode::kPoke:
      resume_scheduled_ = false;
      if (!blocked_) return;
      blocked_ = false;
      bd_[block_kind_] += t - block_start_;
      stall_hist_[static_cast<std::size_t>(block_kind_)].add(t - block_start_);
      now_ = std::max(now_, t);
      resume_execution();
      return;
  }
}

void Cpu::schedule_start() {
  resume_mode_ = ResumeMode::kStart;
  m_.engine().schedule_external(0, resume_event_);
}

void Cpu::start(std::function<void(Cpu&)> body) {
  if (!body) {
    throw std::invalid_argument("fiber front end requires a workload body");
  }
  body_ = std::move(body);
  fiber_ = std::make_unique<sim::Fiber>([this] { run_body(); });
  schedule_start();
}

void Cpu::resume_execution() { fiber_->resume(); }

void Cpu::run_body() {
  body_(*this);
  drive(m_.protocol().finalize(*this));
}

}  // namespace lrc::core
