// Lazy release consistency for hardware-coherent multiprocessors — the
// paper's primary contribution (§2).
//
// Key properties:
//  * Four directory states (Uncached/Shared/Dirty/Weak) with per-sharer
//    writing and notified bits.
//  * Multiple concurrent writers: a write never acquires ownership; the
//    home never forwards requests (2-hop transactions only).
//  * Write notices are sent as soon as a processor writes a shared line,
//    concurrently with computation; sharers merely *buffer* them.
//  * Invalidations are applied at acquire operations (overlapped with the
//    lock-grant latency where possible).
//  * Write-through cache with a coalescing buffer returns data to memory;
//    releases stall until the write buffer, the outstanding-transaction
//    table, and the write-through acknowledgements drain.
//
// The lazier variant (LrcExt, §2 end / §4.3) additionally delays *sending*
// write notices until a release operation or the eviction of a written line.
#pragma once

#include <vector>

#include "proto/base.hpp"
#include "util/flat_hash.hpp"

namespace lrc::proto {

class Lrc : public ProtocolBase {
 public:
  explicit Lrc(core::Machine& m);

  std::string_view name() const override { return "LRC"; }

  CpuOp cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;
  CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;
  CpuOp acquire(core::Cpu& cpu, SyncId s) override;
  CpuOp release(core::Cpu& cpu, SyncId s) override;
  CpuOp barrier(core::Cpu& cpu, SyncId s) override;
  CpuOp fence(core::Cpu& cpu) override;
  CpuOp finalize(core::Cpu& cpu) override;
  Cycle handle(const mesh::Message& msg, Cycle start) override;

  /// Victim-sink target: LRC eviction duties of a displaced line
  /// (coalescing-buffer flush, home notification, pending-notice cleanup).
  /// Calls the virtual before_line_death, so the lazier variant's delayed
  /// notices flush without its own override.
  void evict_victim(NodeId p, const cache::CacheLine& victim,
                    Cycle at) override;

  /// Lines queued for invalidation at `p`'s next acquire (tests).
  const util::FlatSet& pending_invals(NodeId p) const {
    return pending_inval_[p];
  }

 protected:
  // ---- Hooks the lazier variant overrides ----------------------------------

  /// Called for every locally-performed write; the base protocol records it
  /// with the miss classifier immediately (its notice is already on the way).
  virtual void note_local_write(NodeId p, LineId line, WordMask words);

  /// Called from release/barrier/finalize before draining; the base has
  /// nothing to flush beyond the coalescing buffer.
  virtual void flush_for_release(core::Cpu& cpu);

  /// True once nothing remains outstanding for `cpu`'s release.
  virtual bool drained(core::Cpu& cpu) const;

  /// Called before a line is invalidated (acquire) or evicted (fill victim).
  virtual void before_line_death(NodeId p, LineId line, Cycle at);

  // ---- Shared machinery -----------------------------------------------------

  /// Starts a write-announcement transaction: OT entry + kWriteReq.
  void start_write_req(core::Cpu& cpu, LineId line, bool need_data,
                       int wb_slot, WordMask words);

  /// Applies all buffered write notices at `p` on its protocol processor
  /// beginning no earlier than `at`; returns the completion time.
  Cycle apply_invals(NodeId p, Cycle at);

  /// Adds a write to the coalescing buffer, streaming a displaced entry to
  /// memory.
  void cb_add(core::Cpu& cpu, LineId line, WordMask words, Cycle at);

  void send_write_through(NodeId p, LineId line, WordMask words, Cycle at);

  /// Installs a line in `p`'s hierarchy; victims exit via evict_victim.
  void do_fill(NodeId p, LineId line, cache::LineState st, Cycle at);

  CpuOp drain_for_release(core::Cpu& cpu);

  // Home-side handlers.
  Cycle home_read(const mesh::Message& msg, Cycle start);
  Cycle home_write_req(const mesh::Message& msg, Cycle start);
  Cycle home_notice_ack(const mesh::Message& msg, Cycle start);
  Cycle home_membership_update(const mesh::Message& msg, Cycle start);
  Cycle home_write_through(const mesh::Message& msg, Cycle start);

  // Node-side handlers.
  Cycle node_write_notice(const mesh::Message& msg, Cycle start);
  Cycle node_write_ack(const mesh::Message& msg, Cycle start);
  Cycle node_fill(const mesh::Message& msg, Cycle start);
  Cycle node_wt_ack(const mesh::Message& msg, Cycle start);

  /// Sends write notices for a (newly) Weak line to every unnotified sharer
  /// except `except`; returns the number sent and updates the outstanding-
  /// notice count.
  unsigned send_notices(DirEntry& e, LineId line, NodeId home, NodeId except,
                        Cycle at);

  std::vector<util::FlatSet> pending_inval_;
};

/// The "aggressively lazy" variant: write notices are buffered locally and
/// only sent at release operations (or when a written line is evicted).
class LrcExt final : public Lrc {
 public:
  explicit LrcExt(core::Machine& m);

  std::string_view name() const override { return "LRC-ext"; }

  CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;

  /// Delayed (unannounced) writes at `p` (tests).
  const util::FlatMap<WordMask>& delayed(NodeId p) const {
    return delayed_[p];
  }

 protected:
  void note_local_write(NodeId p, LineId line, WordMask words) override;
  void flush_for_release(core::Cpu& cpu) override;
  bool drained(core::Cpu& cpu) const override;
  void before_line_death(NodeId p, LineId line, Cycle at) override;

 private:
  /// Announces the delayed writes of `line` to its home (release/eviction/
  /// invalidation time).
  void flush_delayed_line(NodeId p, LineId line, Cycle at);

  std::vector<util::FlatMap<WordMask>> delayed_;
  /// Per-processor scratch for flush_for_release's snapshot of delayed
  /// lines (the flush mutates the map mid-walk); reused so steady-state
  /// releases allocate nothing.
  std::vector<std::vector<LineId>> flush_scratch_;
  /// Lines whose writes this node has already announced to the home (they
  /// behave like base-LRC written lines until evicted or invalidated).
  std::vector<util::FlatSet> announced_;
};

}  // namespace lrc::proto
