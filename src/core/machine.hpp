// The simulated multiprocessor: event engine, mesh, memory system, one Cpu
// per node, a coherence protocol, and the synchronization service. This is
// the library's main entry point:
//
//   auto params = core::SystemParams::paper_default();
//   core::Machine m(params, core::ProtocolKind::kLRC);
//   auto a = m.alloc<double>(n, "A");
//   m.run([&](core::Cpu& cpu) { ... a.get(cpu, i) ... });
//   core::Report r = m.report();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "check/hooks.hpp"
#include "core/access_log.hpp"
#include "core/cpu.hpp"
#include "core/params.hpp"
#include "core/report.hpp"
#include "mem/address_map.hpp"
#include "mem/backing_store.hpp"
#include "mem/dram.hpp"
#include "mem/llc.hpp"
#include "mesh/nic.hpp"
#include "mesh/topology.hpp"
#include "proto/protocol.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "stats/miss_classifier.hpp"

namespace lrc::proto {
class SyncManager;
}

namespace lrc::check {
class Checker;
}

namespace lrc::core {

/// Typed view of a shared segment; all element accesses are timed through
/// the calling processor.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(Addr base, std::size_t n) : base_(base), n_(n) {}

  std::size_t size() const { return n_; }
  Addr addr(std::size_t i) const { return base_ + i * sizeof(T); }

  T get(Cpu& cpu, std::size_t i) const { return cpu.read<T>(addr(i)); }
  void put(Cpu& cpu, std::size_t i, const T& v) const {
    cpu.write<T>(addr(i), v);
  }

 private:
  Addr base_ = 0;
  std::size_t n_ = 0;
};

class Machine {
 public:
  /// Builds one processor per node. `cpu_factory`, when set, constructs the
  /// processors instead of the default fiber front end — the trace
  /// replayer's hook (trace::ReplayCpu).
  using CpuFactory = std::function<std::unique_ptr<Cpu>(Machine&, NodeId)>;

  Machine(const SystemParams& params, ProtocolKind protocol,
          CpuFactory cpu_factory = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- Setup (untimed) ---------------------------------------------------

  /// Allocates a line-aligned shared segment.
  Addr alloc_bytes(std::size_t bytes, std::string name = {});

  template <typename T>
  SharedArray<T> alloc(std::size_t n, std::string name = {}) {
    return SharedArray<T>(alloc_bytes(n * sizeof(T), std::move(name)), n);
  }

  /// Untimed backdoor accesses for initialization and result checking.
  template <typename T>
  T peek(Addr a) const {
    return store_.load<T>(a);
  }
  template <typename T>
  void poke_mem(Addr a, const T& v) {
    store_.store(a, v);
  }

  // ---- Execution ---------------------------------------------------------

  /// Runs `body` SPMD on all processors to completion. May be called once.
  /// Replay front ends carry their own workload: pass nullptr.
  void run(std::function<void(Cpu&)> body);

  Report report() const;

  // ---- Component access (protocols, sync service, tests) -----------------

  const SystemParams& params() const { return params_; }
  unsigned nprocs() const { return params_.nprocs; }
  ProtocolKind protocol_kind() const { return kind_; }

  sim::Engine& engine() { return engine_; }

  mesh::Topology& topo() { return topo_; }
  mesh::Nic& nic() { return nic_; }
  mem::AddressMap& amap() { return amap_; }
  mem::BackingStore& store() { return store_; }
  const mem::BackingStore& store() const { return store_; }
  mem::Dram& dram() { return dram_; }
  mem::SharedLlc* llc() { return llc_.get(); }
  stats::MissClassifier& classifier() { return classifier_; }
  proto::Protocol& protocol() { return *protocol_; }
  proto::SyncManager& sync() { return *sync_; }

  Cpu& cpu(NodeId p) { return *cpus_[p]; }

  /// Optional message trace (disabled by default): `trace().enable()`
  /// before run() records every delivery for debugging/tests.
  sim::Trace& trace() { return trace_; }

  /// Installs a workload-stream capture hook (trace front end). Call before
  /// run() with a log that outlives it; nullptr detaches.
  void set_access_log(AccessLog* log) { access_log_ = log; }
  AccessLog* access_log() const { return access_log_; }

  /// Enables the runtime consistency checker (docs/CHECKER.md). Only
  /// available in LRCSIM_CHECK builds — returns nullptr when the checker is
  /// compiled out, so callers can skip. Call before run(). In strict mode
  /// run() throws check::ViolationError after the engine stops if any
  /// violation was recorded.
  check::Checker* enable_checker(bool strict = true);
  check::Checker* checker() { return checker_.get(); }

  NodeId home_of_line(LineId l) { return amap_.home_of_line(l); }

  /// Re-injects a deferred message into dispatch at time `t` (used by the
  /// MSI protocols to replay requests queued behind a busy directory entry).
  void redeliver(const mesh::Message& msg, Cycle t);

  /// Schedules a wake-up for processor `p` at time `t` (typed pooled event;
  /// used by protocols that finish work asynchronously, e.g. LRC's fence).
  void schedule_poke(NodeId p, Cycle t);

  /// Event-side entry into dispatch (RedeliverEvent's target).
  void dispatch_deferred(const mesh::Message& msg, Cycle t);

  /// Protocol-processor occupancy bookkeeping used by message dispatch.
  Cycle pp_free_at(NodeId n) const { return pp_free_[n]; }
  /// Claims the protocol processor at `n` from max(at, free) for `cost`
  /// cycles; returns the start time.
  Cycle pp_claim(NodeId n, Cycle at, Cycle cost);

  /// Full-line memory access: through the shared LLC when configured
  /// (reads may skip DRAM on a slice hit; writes always reach DRAM so
  /// LLC copies stay clean), straight to DRAM otherwise.
  Cycle mem_line(NodeId node, LineId line, Cycle at, bool write) {
    if (llc_) return llc_->access_line(node, line, at, write, dram_);
    return dram_.access(node, at, params_.line_bytes, write);
  }

  /// Partial-line write-through to memory (LLC-aware, write-update).
  Cycle mem_partial_write(NodeId node, LineId line, Cycle at,
                          std::uint32_t bytes) {
    if (llc_) return llc_->write_through(node, line, at, bytes, dram_);
    return dram_.access(node, at, bytes, true);
  }

  // Event-visible run counters.
  std::uint64_t lock_acquires() const { return lock_acquires_; }
  std::uint64_t barrier_episodes() const { return barrier_episodes_; }
  void note_lock_acquire() { ++lock_acquires_; }
  void note_barrier_episode() { ++barrier_episodes_; }

 private:
  void dispatch(const mesh::Message& msg, Cycle t);

  SystemParams params_;
  ProtocolKind kind_;
  sim::Engine engine_;
  mesh::Topology topo_;
  mesh::Nic nic_;
  mem::AddressMap amap_;
  mem::BackingStore store_;
  mem::Dram dram_;
  std::unique_ptr<mem::SharedLlc> llc_;
  stats::MissClassifier classifier_;
  std::vector<Cycle> pp_free_;
  sim::Trace trace_;
  std::unique_ptr<proto::SyncManager> sync_;
  std::unique_ptr<proto::Protocol> protocol_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::unique_ptr<check::Checker> checker_;
  AccessLog* access_log_ = nullptr;
  bool ran_ = false;

  std::uint64_t lock_acquires_ = 0;
  std::uint64_t barrier_episodes_ = 0;
};

// ---- Cpu template methods (need Machine) ----------------------------------

template <typename T>
T Cpu::read(Addr a) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (AccessLog* log = m_.access_log()) {
    log->on_access(id_, /*write=*/false, a, sizeof(T));
  }
  if (!m_.protocol().l1_hit(*this, a, sizeof(T), /*write=*/false)) {
    drive(m_.protocol().cpu_read(*this, a, sizeof(T)));
  }
  LRCSIM_HOOK(m_, on_read(id_, a, sizeof(T)));
  return m_.store().load<T>(a);
}

template <typename T>
void Cpu::write(Addr a, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (AccessLog* log = m_.access_log()) {
    log->on_access(id_, /*write=*/true, a, sizeof(T));
  }
  if (!m_.protocol().l1_hit(*this, a, sizeof(T), /*write=*/true)) {
    drive(m_.protocol().cpu_write(*this, a, sizeof(T)));
  }
  LRCSIM_HOOK(m_, on_write(id_, a, sizeof(T)));
  m_.store().store(a, v);
}

}  // namespace lrc::core
