// Coherence-protocol interface. One Protocol instance serves the whole
// machine. A reference first tries l1_hit, a plain call; the rest of the
// processor side returns CpuOp coroutines (proto/cpu_op.hpp) run by the
// front end — the workload fiber (core::Cpu::drive) or the trace
// replayer's decode loop — suspending at Wait whenever the memory model
// requires the processor to stall. `handle` runs in event context when a
// message wins the destination node's protocol processor.
#pragma once

#include <memory>
#include <string_view>

#include "mesh/message.hpp"
#include "proto/cpu_op.hpp"
#include "sim/types.hpp"

namespace lrc::core {
class Cpu;
class Machine;
enum class ProtocolKind : std::uint8_t;
}  // namespace lrc::core

namespace lrc::cache {
struct CacheLine;
}  // namespace lrc::cache

namespace lrc::proto {

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;

  /// Timed shared-memory access of `bytes` at `a`; the returned op blocks
  /// the cpu as required by the memory model.
  virtual CpuOp cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) = 0;
  virtual CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) = 0;

  /// Synchronization entry points.
  virtual CpuOp acquire(core::Cpu& cpu, SyncId s) = 0;
  virtual CpuOp release(core::Cpu& cpu, SyncId s) = 0;
  virtual CpuOp barrier(core::Cpu& cpu, SyncId s) = 0;

  /// Consistency fence: applies buffered write notices now, giving acquire
  /// semantics without a lock. The paper's §4.2 proposes fences for racy
  /// programs (e.g. chaotic relaxation) whose solution quality degrades
  /// when invalidations are postponed to the next acquire. Only the lazy
  /// protocols buffer notices, so only Lrc::fence overrides this (LRC-ext
  /// inherits it); SC, ERC, and ERC-WT invalidate eagerly at write time and
  /// use this default no-op.
  virtual CpuOp fence(core::Cpu& cpu) {
    (void)cpu;
    co_return;
  }

  /// End-of-program drain: leaves no outstanding transactions so statistics
  /// settle.
  virtual CpuOp finalize(core::Cpu& cpu) = 0;

  /// Processes `msg` at its destination's protocol processor starting at
  /// `start`; returns the processor-occupancy cost in cycles.
  virtual Cycle handle(const mesh::Message& msg, Cycle start) = 0;

  /// A valid line left processor `p`'s private cache stack entirely
  /// (displaced by a fill or a hierarchy-internal demotion cascade). The
  /// protocol issues the same transactions a coherence invalidation would
  /// need: writebacks for dirty data, eviction notices where membership is
  /// tracked exactly. Runs in whichever context performed the fill.
  virtual void evict_victim(NodeId p, const cache::CacheLine& victim,
                            Cycle at) = 0;

  /// The L1-hit path, tried by both front ends before they create a
  /// cpu_read/cpu_write op: when `a` hits in the processor's L1 (a write
  /// needs the line kReadWrite), performs the access exactly as the op's
  /// first branch would — hit count, the protocol's write commit, one busy
  /// cycle — and returns true. Otherwise returns false with no side
  /// effect, and the caller creates the op. Plain call, no coroutine
  /// frame; tick() may still yield for the run-ahead quantum.
  virtual bool l1_hit(core::Cpu& cpu, Addr a, std::uint32_t bytes,
                      bool write) = 0;
};

/// Factory used by core::Machine.
std::unique_ptr<Protocol> make_protocol(core::ProtocolKind kind,
                                        core::Machine& m);

}  // namespace lrc::proto
