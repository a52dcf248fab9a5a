// Shared implementation for the MSI-style directory protocols: the
// sequentially-consistent baseline (SC) and DASH-like eager release
// consistency (ERC). Both use a three-state directory (Uncached / Shared /
// Dirty), eager invalidations collected at the home node, 3-hop forwarding
// for dirty lines, and a write-back cache. They differ only on the
// processor side: SC stalls on every miss including writes; ERC retires
// writes through a write buffer and stalls only at releases.
#pragma once

#include "proto/base.hpp"

namespace lrc::proto {

class MsiBase : public ProtocolBase {
 public:
  explicit MsiBase(core::Machine& m);

  CpuOp cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;
  CpuOp acquire(core::Cpu& cpu, SyncId s) override;
  CpuOp release(core::Cpu& cpu, SyncId s) override;
  CpuOp barrier(core::Cpu& cpu, SyncId s) override;
  CpuOp finalize(core::Cpu& cpu) override;
  Cycle handle(const mesh::Message& msg, Cycle start) override;

  /// Victim-sink target: a line left `p`'s private stack. Writes back
  /// dirty data; clean evictions are silent (DASH-style stale sharers).
  void evict_victim(NodeId p, const cache::CacheLine& victim,
                    Cycle at) override;

 protected:
  Cycle dir_cost() const { return params().erc_dir_cost; }

  /// Waits until the write buffer and transaction table are empty — the
  /// eager release condition. The write-through variant also drains its
  /// coalescing buffer and write-through acknowledgements. Awaited from
  /// release/barrier/finalize ops.
  virtual CpuOp drain(core::Cpu& cpu);

  /// Starts a write transaction for `line` (op context): sends
  /// kUpgradeReq when the line is present read-only, else kReadExReq.
  /// `wb_slot` (-1 for SC) ties a write-buffer slot to the completion.
  void start_write_tx(core::Cpu& cpu, LineId line, WordMask words,
                      int wb_slot, bool present_ro);

  // Home-side handlers. Each returns protocol-processor cost.
  Cycle home_read(const mesh::Message& msg, Cycle start);
  Cycle home_write(const mesh::Message& msg, Cycle start);
  Cycle home_writeback(const mesh::Message& msg, Cycle start);
  Cycle home_sharing_wb(const mesh::Message& msg, Cycle start);
  Cycle home_inval_ack(const mesh::Message& msg, Cycle start);

  // Node-side handlers.
  Cycle node_inval(const mesh::Message& msg, Cycle start);
  Cycle node_forward(const mesh::Message& msg, Cycle start);
  Cycle node_fill(const mesh::Message& msg, Cycle start);
  Cycle node_upgrade_ack(const mesh::Message& msg, Cycle start);

  /// Installs `line` at `p`, writing back a dirty victim. Returns completion.
  virtual void do_fill(NodeId p, LineId line, cache::LineState st, Cycle at);

  /// Commits a completed write: marks cache words dirty and records the
  /// write with the miss classifier (write-back data path; the
  /// write-through variant streams words to memory instead).
  virtual void commit_write(NodeId p, LineId line, WordMask words);

  void unbusy_and_replay(DirEntry& e, Cycle at);

  /// Throws ProtocolError unless the home has a `kind` forward in flight
  /// on `e`: a response that completes a forward must find it pending.
  static void require_forward(const DirEntry& e, mesh::MsgKind kind,
                              const mesh::Message& msg) {
    if (!e.busy || e.pending_kind != kind) {
      handler_error(msg, "forward response with no forward pending");
    }
  }
};

/// Sequential consistency: every access stalls until globally performed.
class Sc final : public MsiBase {
 public:
  explicit Sc(core::Machine& m) : MsiBase(m) {}
  std::string_view name() const override { return "SC"; }
  CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;
};

/// Eager release consistency (DASH-like): writes retire through a
/// coalescing write buffer with read bypass (SystemParams::
/// write_buffer_entries, 4 in the paper); releases stall until all
/// outstanding writes have performed.
class Erc : public MsiBase {
 public:
  explicit Erc(core::Machine& m) : MsiBase(m) {}
  std::string_view name() const override { return "ERC"; }
  CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) override;
};

/// Ablation variant (paper §4.2 discussion): eager release consistency
/// with the lazy protocol's write-through data path — a write-through
/// cache plus the coalescing buffer (SystemParams::coalescing_entries,
/// 16 in the paper) — instead of write-back.
/// The directory behaviour (eager invalidations, single writer, 3-hop
/// forwards) is unchanged; only the data path differs. The paper argues
/// this "would be detrimental to the performance of other applications";
/// this protocol exists to measure that claim.
class ErcWt final : public Erc {
 public:
  explicit ErcWt(core::Machine& m) : Erc(m) {}
  std::string_view name() const override { return "ERC-WT"; }
  CpuOp release(core::Cpu& cpu, SyncId s) override;
  CpuOp barrier(core::Cpu& cpu, SyncId s) override;
  CpuOp finalize(core::Cpu& cpu) override;
  Cycle handle(const mesh::Message& msg, Cycle start) override;

  /// Write-through victims owe any coalescing-buffer words to memory
  /// (they carry no dirty data — the cache never holds dirty words).
  void evict_victim(NodeId p, const cache::CacheLine& victim,
                    Cycle at) override;

 protected:
  CpuOp drain(core::Cpu& cpu) override;
  void commit_write(NodeId p, LineId line, WordMask words) override;

 private:
  void flush_cb(core::Cpu& cpu);
  void send_write_through(NodeId p, LineId line, WordMask words, Cycle at);
};

}  // namespace lrc::proto
