// Miss classification following Bianchini & Kontothanassis [3] (the scheme
// behind the paper's "Figure 2" table): every miss is labeled Cold,
// True-sharing, False-sharing, Eviction, or Write (permission upgrade).
//
// Approximation (documented in DESIGN.md §6): a miss on a line whose local
// copy died is a *sharing* miss iff some other processor wrote into the line
// since the copy died — *true* sharing if the specific missed word was
// written, *false* sharing otherwise. If no foreign write intervened, a
// replacement-caused death is an Eviction miss. Writes to a present
// read-only line are Write (upgrade) misses and transfer no data.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/types.hpp"
#include "util/flat_hash.hpp"

namespace lrc::stats {

enum class MissClass : std::uint8_t {
  kCold = 0,
  kTrueSharing,
  kFalseSharing,
  kEviction,
  kWrite,
  kCount
};

constexpr std::size_t kMissClasses = static_cast<std::size_t>(MissClass::kCount);

std::string_view to_string(MissClass c);

struct MissCounts {
  std::array<std::uint64_t, kMissClasses> n{};
  std::uint64_t& operator[](MissClass c) {
    return n[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](MissClass c) const {
    return n[static_cast<std::size_t>(c)];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto v : n) t += v;
    return t;
  }
  MissCounts& operator+=(const MissCounts& o) {
    for (std::size_t i = 0; i < kMissClasses; ++i) n[i] += o.n[i];
    return *this;
  }
};

class MissClassifier {
 public:
  MissClassifier(unsigned nprocs, unsigned words_per_line);

  /// Records that `writer`'s writes to `words` of `line` became globally
  /// visible (directory processed the write / sent notices).
  void on_write_committed(NodeId writer, LineId line, WordMask words);

  /// Records that `proc` obtained a copy of `line`.
  void on_fill(NodeId proc, LineId line);

  /// Records that `proc`'s copy of `line` died. `coherence` is true for
  /// invalidations, false for replacements.
  void on_copy_lost(NodeId proc, LineId line, bool coherence);

  /// Classifies (and counts) a miss by `proc` on `word` of `line`.
  /// `upgrade` marks a write to a present read-only line.
  MissClass classify(NodeId proc, LineId line, unsigned word, bool upgrade);

  const MissCounts& counts(NodeId proc) const { return per_proc_[proc]; }
  MissCounts aggregate() const;

  /// Word entries per storage chunk (64 KiB): a chunk holds
  /// kChunkWords / words_per_line written lines.
  static constexpr std::size_t kChunkWords = 8192;

 private:
  // Per-processor line history, one uint64: (fill_stamp << 2) | Status.
  // fill_stamp is the global write stamp when the processor last *obtained*
  // the copy. Foreign writes after it made (or would have made) the copy
  // stale — this window is what distinguishes sharing misses from pure
  // capacity/conflict misses even when invalidations are applied lazily.
  enum Status : std::uint64_t { kNever, kCached, kLostEvict, kLostInval };
  static constexpr std::uint64_t kStatusMask = 3;

  // on_write_committed runs for every committed write and classify for
  // every miss. A written line owns a block of `words_per_line_` word
  // entries, each one uint64: (stamp << 8) | (writer + 1), 0 for a word
  // never written. Blocks are carved from fixed-size chunks that never
  // move, so `word_index_` maps a line straight to its block. Line history
  // lives in the per-processor map slots.
  unsigned nprocs_;
  unsigned words_per_line_;
  std::uint64_t stamp_ = 0;
  util::FlatMap<std::uint64_t*> word_index_;  // line -> block
  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  // Words handed out of chunks_.back(); "full" before the first chunk.
  std::size_t chunk_used_ = kChunkWords;
  std::vector<util::FlatMap<std::uint64_t>> hist_;  // per proc
  std::vector<MissCounts> per_proc_;
};

inline std::string_view to_string(MissClass c) {
  switch (c) {
    case MissClass::kCold: return "cold";
    case MissClass::kTrueSharing: return "true";
    case MissClass::kFalseSharing: return "false";
    case MissClass::kEviction: return "eviction";
    case MissClass::kWrite: return "write";
    case MissClass::kCount: break;
  }
  return "?";
}

}  // namespace lrc::stats
