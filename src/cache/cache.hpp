// Set-associative processor cache with the paper's *local* line states:
// Invalid, ReadOnly, ReadWrite. Geometry (sets x ways) and replacement
// policy (LRU / FIFO / random) are orthogonal knobs; the paper's Table-1
// direct-mapped cache is simply ways=1. The global coherence state
// (Uncached / Shared / Dirty / Weak) lives in the directory; this class
// only detects the accesses that must trigger protocol transactions and
// models replacement.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace lrc::cache {

enum class LineState : std::uint8_t { kInvalid, kReadOnly, kReadWrite };

enum class ReplacementKind : std::uint8_t { kLru, kFifo, kRandom };

inline const char* to_string(ReplacementKind r) {
  switch (r) {
    case ReplacementKind::kLru: return "lru";
    case ReplacementKind::kFifo: return "fifo";
    case ReplacementKind::kRandom: return "random";
  }
  return "?";
}

struct CacheLine {
  LineId line = 0;                   // global line number (tag + index)
  LineState state = LineState::kInvalid;
  WordMask dirty = 0;                // dirty words (write-back protocols)
};

/// Sets x ways x line size. Everything must be a power of two so set
/// selection is a mask and slot addressing is a shift.
struct CacheGeometry {
  std::uint32_t sets = 1;
  std::uint32_t ways = 1;
  std::uint32_t line_bytes = 128;

  /// Derives (and validates) a geometry from a capacity. Throws
  /// std::invalid_argument on non-power-of-two sizes/ways, capacity not
  /// divisible into sets, or ways exceeding the number of lines.
  static CacheGeometry make(std::uint32_t cache_bytes,
                            std::uint32_t line_bytes, std::uint32_t ways);

  std::uint32_t capacity_bytes() const { return sets * ways * line_bytes; }
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;        // writes to ReadWrite lines
  std::uint64_t write_misses = 0;      // writes to Invalid lines
  std::uint64_t upgrade_misses = 0;    // writes to ReadOnly lines
  std::uint64_t evictions = 0;         // replacement-caused victims
  std::uint64_t invalidations = 0;     // coherence-caused victims

  std::uint64_t references() const {
    return read_hits + read_misses + write_hits + write_misses +
           upgrade_misses;
  }
  std::uint64_t misses() const {
    return read_misses + write_misses + upgrade_misses;
  }
  double miss_rate() const {
    const auto refs = references();
    return refs ? static_cast<double>(misses()) / static_cast<double>(refs)
                : 0.0;
  }
};

class Cache {
 public:
  /// Direct-mapped LRU-degenerate cache (the legacy shape). `cache_bytes`
  /// and `line_bytes` must be powers of two.
  Cache(std::uint32_t cache_bytes, std::uint32_t line_bytes);

  /// Fully specified geometry + replacement policy. `seed` feeds the
  /// random policy's PRNG; LRU/FIFO ignore it.
  Cache(const CacheGeometry& geo, ReplacementKind repl, std::uint64_t seed);

  std::uint32_t line_bytes() const { return geo_.line_bytes; }
  std::uint32_t num_sets() const { return geo_.sets; }
  std::uint32_t num_ways() const { return geo_.ways; }
  const CacheGeometry& geometry() const { return geo_; }
  ReplacementKind replacement() const { return repl_; }

  /// Returns the resident copy of `line`, or nullptr. Pure query: does
  /// not touch replacement state (safe for protocol handlers/checkers).
  CacheLine* find(LineId line) {
    CacheLine* base = set_base(line);
    for (std::uint32_t w = 0; w < geo_.ways; ++w) {
      CacheLine& l = base[w];
      if (l.state != LineState::kInvalid && l.line == line) return &l;
    }
    return nullptr;
  }
  const CacheLine* find(LineId line) const {
    return const_cast<Cache*>(this)->find(line);
  }

  /// Recency update for a resident line `l` (a find() result) — what a
  /// demand access does to replacement state. A no-op for FIFO/random.
  void touch(CacheLine* l) {
    if (repl_ == ReplacementKind::kLru) stamp_[l - lines_.data()] = ++tick_;
  }

  /// find() plus touch() — the demand-access path. Identical to find() for
  /// FIFO/random (and trivially at ways=1).
  CacheLine* find_touch(LineId line) {
    CacheLine* l = find(line);
    if (l != nullptr) touch(l);
    return l;
  }

  /// Installs `line` in `state`, evicting the policy-chosen victim when
  /// the set is full. Returns the victim (valid lines only) so the caller
  /// can write back / notify home. Counts as an eviction in stats.
  /// Refilling the resident line keeps its dirty mask.
  std::optional<CacheLine> fill(LineId line, LineState state);

  /// Would installing `line` displace a valid line? (peek only — the
  /// random policy peeks a copy of its PRNG so the next fill() matches)
  const CacheLine* victim_for(LineId line) const;

  /// Removes `line` due to a coherence action; returns the removed copy
  /// and counts an invalidation.
  std::optional<CacheLine> invalidate(LineId line);

  /// Removes `line` without stats accounting (hierarchy-internal moves:
  /// exclusive promotion, back-invalidation bookkeeping).
  std::optional<CacheLine> remove(LineId line);

  /// State accounting helpers.
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  /// Iterates all valid lines (used by flush/finalize paths and tests).
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (auto& l : lines_) {
      if (l.state != LineState::kInvalid) fn(l);
    }
  }
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& l : lines_) {
      if (l.state != LineState::kInvalid) fn(l);
    }
  }

 private:
  CacheLine* set_base(LineId line) {
    return lines_.data() + ((line & set_mask_) << way_shift_);
  }
  const CacheLine* set_base(LineId line) const {
    return lines_.data() + ((line & set_mask_) << way_shift_);
  }
  /// Policy choice among the ways of a full set (no invalid way left).
  /// The random policy draws from `rng`: fill() passes rng_ (advancing
  /// it), victim_for() passes a copy (pure peek).
  std::uint32_t victim_way(const CacheLine* base, sim::Rng& rng) const;

  CacheGeometry geo_;
  ReplacementKind repl_;
  std::uint64_t set_mask_;
  std::uint32_t way_shift_;
  std::vector<CacheLine> lines_;     // sets * ways, set-major
  std::vector<std::uint64_t> stamp_; // parallel recency/age stamps
  std::uint64_t tick_ = 0;
  sim::Rng rng_;                     // random policy (victim_for peeks a copy)
  CacheStats stats_;
};

}  // namespace lrc::cache
