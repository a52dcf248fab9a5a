#include "stats/miss_classifier.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace lrc::stats {
namespace {

// 2 processors, 8 words per line.
struct ClassifierFixture : ::testing::Test {
  MissClassifier c{2, 8};
};

TEST_F(ClassifierFixture, FirstAccessIsCold) {
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kCold);
  EXPECT_EQ(c.counts(0)[MissClass::kCold], 1u);
}

TEST_F(ClassifierFixture, UpgradeIsWriteMiss) {
  c.on_fill(0, 5);
  EXPECT_EQ(c.classify(0, 5, 0, true), MissClass::kWrite);
}

TEST_F(ClassifierFixture, EvictionWithNoForeignWritesIsEviction) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, ForeignWriteToMissedWordIsTrueSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x1);  // proc 1 writes word 0
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, ForeignWriteToOtherWordIsFalseSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x80);  // proc 1 writes word 7
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kFalseSharing);
}

TEST_F(ClassifierFixture, EvictionFollowedByForeignWriteIsSharing) {
  // The copy died by replacement, but another processor wrote the word
  // before the re-reference: an infinite cache would have been invalidated
  // too, so this is a sharing miss, not an eviction miss.
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/false);
  c.on_write_committed(1, 5, 0x1);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, OwnWritesDoNotCreateSharing) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(0, 5, 0xFF);  // own writes
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, ForeignWriteBeforeFillDoesNotCount) {
  c.on_write_committed(1, 5, 0x1);  // before proc 0 ever had the line
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);                  // fetched copy includes that write
  c.on_copy_lost(0, 5, /*coherence=*/false);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

TEST_F(ClassifierFixture, UselessInvalidationIsFalseSharing) {
  // Invalidated (e.g. by a lingering notice) but no foreign write actually
  // intervened: the notice was useless — charge false sharing.
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, /*coherence=*/true);
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kFalseSharing);
}

TEST_F(ClassifierFixture, LazyInvalidationWindowStartsAtFill) {
  // LRC pattern: foreign write happens while we still cache the line
  // (stale), the invalidation applies later at an acquire. The foreign
  // write is inside the (fill, now) window, so the re-miss is sharing.
  c.classify(0, 5, 2, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x4);  // word 2, while proc 0 still caches
  c.on_copy_lost(0, 5, /*coherence=*/true);  // applied at acquire, later
  EXPECT_EQ(c.classify(0, 5, 2, false), MissClass::kTrueSharing);
}

TEST_F(ClassifierFixture, AggregatesAcrossProcessors) {
  c.classify(0, 1, 0, false);
  c.classify(1, 2, 0, false);
  c.classify(1, 3, 0, true);
  const MissCounts total = c.aggregate();
  EXPECT_EQ(total[MissClass::kCold], 2u);
  EXPECT_EQ(total[MissClass::kWrite], 1u);
  EXPECT_EQ(total.total(), 3u);
}

TEST_F(ClassifierFixture, RefillResetsWindow) {
  c.classify(0, 5, 0, false);
  c.on_fill(0, 5);
  c.on_write_committed(1, 5, 0x1);
  c.on_copy_lost(0, 5, true);
  c.classify(0, 5, 0, false);  // true sharing; refetches
  c.on_fill(0, 5);
  c.on_copy_lost(0, 5, false);
  // No foreign writes since the second fill: eviction, not sharing.
  EXPECT_EQ(c.classify(0, 5, 0, false), MissClass::kEviction);
}

// The classification algorithm over plain storage: one {writer, stamp}
// record per word and one {status, fill stamp} history per (processor,
// line), in ordinary maps. MissClassifier packs the same state; the
// differential tests below drive both with one stream.
class ReferenceClassifier {
 public:
  ReferenceClassifier(unsigned nprocs, unsigned words_per_line)
      : wpl_(words_per_line), hist_(nprocs), counts_(nprocs) {}

  void on_write_committed(NodeId writer, LineId line, WordMask words) {
    std::vector<WordInfo>& info = words_[line];
    info.resize(wpl_);
    ++stamp_;
    for (unsigned w = 0; w < wpl_; ++w) {
      if ((words >> w) & 1) info[w] = {writer, stamp_};
    }
  }
  void on_fill(NodeId proc, LineId line) {
    hist_[proc][line] = {Status::kCached, stamp_};
  }
  void on_copy_lost(NodeId proc, LineId line, bool coherence) {
    hist_[proc][line].status =
        coherence ? Status::kLostInval : Status::kLostEvict;
  }
  MissClass classify(NodeId proc, LineId line, unsigned word, bool upgrade) {
    MissClass c = MissClass::kCold;
    const auto h = hist_[proc].find(line);
    if (upgrade) {
      c = MissClass::kWrite;
    } else if (h != hist_[proc].end() && h->second.status != Status::kNever) {
      bool word_written = false;
      bool line_written = false;
      const auto it = words_.find(line);
      for (unsigned w = 0; it != words_.end() && w < wpl_; ++w) {
        const WordInfo& i = it->second[w];
        if (i.writer != kInvalidNode && i.writer != proc &&
            i.stamp > h->second.fill_stamp) {
          line_written = true;
          word_written = word_written || w == word;
        }
      }
      c = word_written   ? MissClass::kTrueSharing
          : line_written ? MissClass::kFalseSharing
          : h->second.status == Status::kLostEvict ? MissClass::kEviction
                                                   : MissClass::kFalseSharing;
    }
    ++counts_[proc][c];
    return c;
  }
  MissCounts aggregate() const {
    MissCounts total;
    for (const auto& p : counts_) total += p;
    return total;
  }

 private:
  enum class Status { kNever, kCached, kLostEvict, kLostInval };
  struct WordInfo {
    NodeId writer = kInvalidNode;
    std::uint64_t stamp = 0;
  };
  struct LineHist {
    Status status = Status::kNever;
    std::uint64_t fill_stamp = 0;
  };
  unsigned wpl_;
  std::uint64_t stamp_ = 0;
  std::map<LineId, std::vector<WordInfo>> words_;
  std::vector<std::map<LineId, LineHist>> hist_;
  std::vector<MissCounts> counts_;
};

struct StreamShape {
  unsigned nprocs;
  unsigned words_per_line;
  LineId lines;         // lines drawn from [0, lines)
  unsigned repeat_pct;  // chance a processor reuses one of its last 2 lines
  int steps;
};

// What a stream exercised, so each test can check it covered its case.
struct Coverage {
  bool top_writer = false;   // writer nprocs - 1 committed a write
  bool top_word = false;     // the line's last word was written or missed
  std::set<LineId> written;  // distinct lines written
  MissCounts classes;
};

// Drives MissClassifier and ReferenceClassifier with one seeded random
// stream of fills, lost copies, committed writes and misses, and asserts
// the same MissClass and aggregate() after every step. A processor misses
// (classify, then fill) only on a line it does not cache, as the protocols
// do.
Coverage run_differential(const StreamShape& s, std::uint64_t seed) {
  MissClassifier real(s.nprocs, s.words_per_line);
  ReferenceClassifier ref(s.nprocs, s.words_per_line);
  std::mt19937_64 rng(seed);
  std::set<std::pair<NodeId, LineId>> cached;
  std::vector<std::pair<LineId, LineId>> recent(s.nprocs, {0, 1});
  Coverage cov;
  const WordMask all = s.words_per_line == 64
                           ? ~WordMask{0}
                           : (WordMask{1} << s.words_per_line) - 1;
  for (int step = 0; step < s.steps; ++step) {
    const auto p = static_cast<NodeId>(rng() % s.nprocs);
    auto& [last, before] = recent[p];
    LineId line;
    if (rng() % 100 < s.repeat_pct) {
      line = rng() % 2 != 0 ? last : before;
    } else {
      line = rng() % 3 == 0 ? rng() % 4 : rng() % s.lines;  // some hot lines
    }
    if (line != last) {
      before = last;
      last = line;
    }
    const unsigned word = static_cast<unsigned>(rng() % s.words_per_line);
    const bool is_cached = cached.count({p, line}) != 0;
    switch (rng() % 4) {
      case 0: {  // a write commits: one word, or a random mask
        const WordMask words =
            rng() % 2 != 0 ? WordMask{1} << word : (rng() & all) | 1;
        real.on_write_committed(p, line, words);
        ref.on_write_committed(p, line, words);
        cov.top_writer = cov.top_writer || p == s.nprocs - 1;
        cov.top_word = cov.top_word || (words >> (s.words_per_line - 1)) & 1;
        cov.written.insert(line);
        break;
      }
      case 1:  // the copy dies: invalidation or replacement
        if (is_cached || rng() % 8 == 0) {
          const bool coherence = rng() % 2 != 0;
          real.on_copy_lost(p, line, coherence);
          ref.on_copy_lost(p, line, coherence);
          cached.erase({p, line});
        }
        break;
      case 2:  // an upgrade: a write to a read-only copy
        if (is_cached) {
          const MissClass c = real.classify(p, line, word, true);
          EXPECT_EQ(c, ref.classify(p, line, word, true));
          ++cov.classes[c];
        }
        break;
      default:  // a miss and the fill that answers it
        if (!is_cached) {
          const MissClass c = real.classify(p, line, word, false);
          EXPECT_EQ(c, ref.classify(p, line, word, false))
              << "step " << step << " proc " << p << " line " << line
              << " word " << word;
          ++cov.classes[c];
          cov.top_word = cov.top_word || word == s.words_per_line - 1;
          real.on_fill(p, line);
          ref.on_fill(p, line);
          cached.insert({p, line});
        }
        break;
    }
    EXPECT_EQ(real.aggregate().n, ref.aggregate().n) << "step " << step;
    if (::testing::Test::HasFailure()) break;
  }
  return cov;
}

void expect_every_class(const Coverage& cov) {
  for (std::size_t c = 0; c < kMissClasses; ++c) {
    EXPECT_GT(cov.classes.n[c], 0u) << to_string(static_cast<MissClass>(c));
  }
}

TEST(MissClassifierDifferential, SixtyFourProcsThirtyTwoWords) {
  const Coverage cov = run_differential({64, 32, 48, 30, 60000}, 1);
  EXPECT_TRUE(cov.top_writer);
  EXPECT_TRUE(cov.top_word);
  expect_every_class(cov);
}

TEST(MissClassifierDifferential, SixtyFourProcsSixtyFourWords) {
  const Coverage cov = run_differential({64, 64, 48, 30, 60000}, 2);
  EXPECT_TRUE(cov.top_writer);
  EXPECT_TRUE(cov.top_word);
  expect_every_class(cov);
}

TEST(MissClassifierDifferential, LinesSpanManyStorageChunks) {
  // Word blocks come from fixed chunks; write more lines than three hold.
  const LineId per_chunk = MissClassifier::kChunkWords / 32;
  const Coverage cov = run_differential({8, 32, 4 * per_chunk, 10, 60000}, 3);
  EXPECT_GT(cov.written.size(), 3 * per_chunk);
  expect_every_class(cov);
}

}  // namespace
}  // namespace lrc::stats
