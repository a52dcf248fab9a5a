#include "stats/miss_classifier.hpp"

#include <bit>
#include <cassert>

namespace lrc::stats {

namespace {
// Word entries and line histories pack a write stamp above a writer or
// status field; stamps stay below 2^56 so the shifted stamp fits.
constexpr std::uint64_t kStampLimit = std::uint64_t{1} << 56;
}  // namespace

MissClassifier::MissClassifier(unsigned nprocs, unsigned words_per_line)
    : nprocs_(nprocs),
      words_per_line_(words_per_line),
      hist_(nprocs),
      per_proc_(nprocs) {
  assert(nprocs_ >= 1 && nprocs_ <= kMaxProcs);  // writer + 1 fits 8 bits
  assert(words_per_line_ >= 1 && words_per_line_ <= 64);
}

void MissClassifier::on_write_committed(NodeId writer, LineId line,
                                        WordMask words) {
  assert(writer < nprocs_);
  bool created = false;
  std::uint64_t*& block = word_index_.get_or_create(line, &created);
  if (created) {
    if (kChunkWords - chunk_used_ < words_per_line_) {
      chunks_.push_back(std::make_unique<std::uint64_t[]>(kChunkWords));
      chunk_used_ = 0;
    }
    block = chunks_.back().get() + chunk_used_;
    chunk_used_ += words_per_line_;
  }
  ++stamp_;
  assert(stamp_ < kStampLimit);
  const std::uint64_t entry = (stamp_ << 8) | (writer + 1);
  for (WordMask m = words; m != 0; m &= m - 1) {
    block[std::countr_zero(m)] = entry;
  }
}

void MissClassifier::on_fill(NodeId proc, LineId line) {
  hist_[proc].get_or_create(line) = (stamp_ << 2) | kCached;
}

void MissClassifier::on_copy_lost(NodeId proc, LineId line, bool coherence) {
  std::uint64_t& h = hist_[proc].get_or_create(line);
  h = (h & ~kStatusMask) | (coherence ? kLostInval : kLostEvict);
}

MissClass MissClassifier::classify(NodeId proc, LineId line, unsigned word,
                                   bool upgrade) {
  MissClass c;
  if (upgrade) {
    c = MissClass::kWrite;
  } else {
    const std::uint64_t* h = hist_[proc].find(line);
    if (h == nullptr || (*h & kStatusMask) == kNever) {
      c = MissClass::kCold;
    } else {
      // If the line is (status-wise) still kCached we are classifying a miss
      // on a line the protocol believes resident; treat as cold-equivalent
      // bookkeeping error — should not happen, assert in debug.
      assert((*h & kStatusMask) != kCached &&
             "miss on a line recorded as cached");
      std::uint64_t* const* block = word_index_.find(line);
      bool word_written = false;   // the missed word, by another proc
      bool line_written = false;   // any word of the line, by another proc
      if (block != nullptr) {
        // An entry above `after_fill` has a stamp above fill_stamp (and so
        // was written at all); its low byte names the writer.
        const std::uint64_t after_fill = ((*h >> 2) << 8) | 0xFF;
        const std::uint64_t own = std::uint64_t{proc} + 1;
        const std::uint64_t* info = *block;
        for (unsigned w = 0; w < words_per_line_; ++w) {
          if (info[w] > after_fill && (info[w] & 0xFF) != own) {
            line_written = true;
            if (w == word) word_written = true;
          }
        }
      }
      if (word_written) {
        c = MissClass::kTrueSharing;
      } else if (line_written) {
        c = MissClass::kFalseSharing;
      } else {
        // No foreign write since the copy died: a replacement victim misses
        // again purely due to capacity/conflict. An invalidation with no
        // foreign write is counted as false sharing (the notice was useless).
        c = ((*h & kStatusMask) == kLostEvict) ? MissClass::kEviction
                                               : MissClass::kFalseSharing;
      }
    }
  }
  ++per_proc_[proc][c];
  return c;
}

MissCounts MissClassifier::aggregate() const {
  MissCounts total;
  for (const auto& p : per_proc_) total += p;
  return total;
}

}  // namespace lrc::stats
