// Per-node private cache stack (L1 + optional L2) behind one front end.
//
// The protocols talk to this class exactly as they talked to the bare
// Cache: find / fill / invalidate plus in-place CacheLine mutation. The
// hierarchy hides level movement (promotion on L2 hits, demotion of L1
// victims, inclusive back-invalidation) and reports exactly one kind of
// externally visible event — a line leaving the node entirely — through
// the victim sink, which the protocol turns into writebacks / eviction
// notices, the same transactions a coherence invalidation produces.
//
// Authority: when a line is resident in both levels (inclusive mode),
// the L1 copy is authoritative — its state/dirty are live, the L2 tag is
// a placeholder with dirty == 0. All queries return the authoritative
// copy (L1 first), so protocol in-place mutations always land correctly.
//
// Determinism: no wall-clock, no allocation after construction; the
// random replacement policy draws from an Rng seeded from the engine
// seed and the node id.
#pragma once

#include <cassert>
#include <memory>
#include <optional>

#include "cache/cache.hpp"
#include "cache/config.hpp"
#include "sim/types.hpp"

namespace lrc::cache {

/// Per-level movement accounting (not part of the golden digest; the
/// protocol-visible aggregate lives in stats()).
struct LevelStats {
  std::uint64_t hits = 0;          // demand accesses served at this level
  std::uint64_t fills = 0;         // lines installed into this level
  std::uint64_t evictions = 0;     // victims displaced out of this level
  std::uint64_t invalidations = 0; // coherence removals at this level
  std::uint64_t promotions = 0;    // lines moved up toward L1
  std::uint64_t demotions = 0;     // lines (or authority) moved down to L2
  std::uint64_t back_invals = 0;   // L1 copies killed by L2 victim eviction
};

class Hierarchy {
 public:
  /// Called when a valid line leaves the private stack entirely (the
  /// bottom level displaced it). The protocol owns writeback / notify.
  using VictimSink = void (*)(void* ctx, NodeId node, const CacheLine& victim,
                              Cycle at);

  Hierarchy(const CacheConfig& cfg, std::uint32_t l1_bytes,
            std::uint32_t line_bytes, NodeId node, std::uint64_t seed);

  void set_victim_sink(VictimSink fn, void* ctx) {
    sink_ = fn;
    sink_ctx_ = ctx;
  }

  std::uint32_t line_bytes() const { return l1_.line_bytes(); }
  unsigned levels() const { return l2_ ? 2u : 1u; }
  bool inclusive() const { return inclusive_; }

  /// Pure query across all private levels, L1 first; no replacement-state
  /// update, no level movement. Protocol handlers / checker / tests.
  CacheLine* find(LineId line) {
    if (CacheLine* l = l1_.find(line)) return l;
    if (l2_) {
      if (CacheLine* l = l2_->find(line)) return l;
    }
    return nullptr;
  }
  const CacheLine* find(LineId line) const {
    return const_cast<Hierarchy*>(this)->find(line);
  }

  /// Demand-access path: touches recency; an L2 hit promotes the line
  /// into L1 (charging hit_penalty()) and may demote an L1 victim. `at`
  /// stamps any external victim the promotion displaces.
  CacheLine* lookup(LineId line, Cycle at) {
    if (CacheLine* l = lookup_l1(line, /*need_rw=*/false)) return l;
    hit_penalty_ = 0;
    if (!l2_) return nullptr;
    return lookup_l2(line, at);
  }

  /// The L1-hit part of lookup(): returns the L1 copy of `line` with
  /// lookup()'s exact effects (recency touch, one L1 hit, hit_penalty()
  /// reset to 0) when L1 holds it — in kReadWrite if `need_rw`. Otherwise
  /// returns nullptr and changes nothing, so the caller can fall back to
  /// the full lookup(). The processor front ends' hit path.
  CacheLine* lookup_l1(LineId line, bool need_rw) {
    CacheLine* l = l1_.find(line);
    if (l == nullptr || (need_rw && l->state != LineState::kReadWrite)) {
      return nullptr;
    }
    l1_.touch(l);
    ++lstats_[0].hits;
    hit_penalty_ = 0;
    return l;
  }

  /// Extra hit latency of the last lookup() that hit (0 for L1 hits).
  Cycle hit_penalty() const { return hit_penalty_; }

  /// Installs `line` (a protocol fill). Inclusive mode allocates in L2
  /// first so inclusion holds; any line displaced out of the bottom level
  /// exits through the victim sink.
  void fill(LineId line, LineState state, Cycle at);

  /// Coherence removal from every level. Returns the authoritative
  /// removed copy (dirty masks merged) and counts one invalidation,
  /// exactly as the single-level cache did.
  std::optional<CacheLine> invalidate(LineId line);

  /// Protocol-visible aggregate (the golden-digest fields).
  CacheStats& stats() { return totals_; }
  const CacheStats& stats() const { return totals_; }

  const LevelStats& level_stats(unsigned level) const {
    assert(level < levels());
    return lstats_[level];
  }

  const Cache& l1() const { return l1_; }
  const Cache* l2() const { return l2_.get(); }

  /// Iterates every line the node holds, visiting each line once (the
  /// authoritative copy). Used by flush/finalize paths and tests.
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    l1_.for_each_valid(fn);
    if (l2_) {
      l2_->for_each_valid([&](CacheLine& cl) {
        if (l1_.find(cl.line) != nullptr) return;  // L1 copy authoritative
        fn(cl);
      });
    }
  }

 private:
  CacheLine* lookup_l2(LineId line, Cycle at);

  /// Installs into L1, cascading the L1 victim down (merge into the L2
  /// tag when inclusive, demote when exclusive, external when L1-only).
  CacheLine* install_l1(LineId line, LineState state, WordMask dirty,
                        Cycle at);
  void handle_l1_victim(const CacheLine& victim, Cycle at);
  void external_victim(const CacheLine& victim, Cycle at) {
    ++totals_.evictions;
    if (sink_ != nullptr) sink_(sink_ctx_, node_, victim, at);
  }

  Cache l1_;
  std::unique_ptr<Cache> l2_;  // one-time construction allocation
  bool inclusive_ = true;
  Cycle l2_hit_cycles_ = 0;
  Cycle hit_penalty_ = 0;
  NodeId node_;
  VictimSink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
  CacheStats totals_;
  LevelStats lstats_[2];
};

}  // namespace lrc::cache
