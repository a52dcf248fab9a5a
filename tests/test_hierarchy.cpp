// Unit tests for the private cache stack (cache::Hierarchy): level
// movement (promotion / demotion), the inclusion and exclusion boundary
// contracts, back-invalidation of inclusive victims, authority merging on
// invalidation, the external victim sink, and lookup_l1 (the front ends'
// L1-hit path) against lookup().
#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace lrc::cache {
namespace {

constexpr std::uint32_t kLine = 128;
constexpr std::uint32_t kL1Bytes = 512;  // 4 direct-mapped sets

struct SinkRec {
  std::vector<CacheLine> victims;
  static void record(void* ctx, NodeId, const CacheLine& v, Cycle) {
    static_cast<SinkRec*>(ctx)->victims.push_back(v);
  }
};

CacheConfig inclusive_cfg() {
  // L2: one set x 4 ways, so lines 0..3 (distinct L1 sets) share it.
  auto cfg = CacheConfig::with_l2(512, 4, InclusionPolicy::kInclusive);
  return cfg;
}

CacheConfig exclusive_cfg() {
  auto cfg = CacheConfig::with_l2(512, 4, InclusionPolicy::kExclusive);
  return cfg;
}

TEST(Hierarchy, L1OnlyVictimGoesStraightToSink) {
  Hierarchy h(CacheConfig::l1_only(), kL1Bytes, kLine, /*node=*/0, /*seed=*/1);
  SinkRec rec;
  h.set_victim_sink(&SinkRec::record, &rec);
  EXPECT_EQ(h.levels(), 1u);
  h.fill(0, LineState::kReadWrite, 0);
  h.find(0)->dirty = 0x3;
  h.fill(4, LineState::kReadOnly, 5);  // conflicts in L1 set 0
  ASSERT_EQ(rec.victims.size(), 1u);
  EXPECT_EQ(rec.victims[0].line, 0u);
  EXPECT_EQ(rec.victims[0].state, LineState::kReadWrite);
  EXPECT_EQ(rec.victims[0].dirty, 0x3u);
  EXPECT_EQ(h.stats().evictions, 1u);
}

TEST(Hierarchy, InclusiveFillInstallsBothLevels) {
  Hierarchy h(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadOnly, 0);
  EXPECT_NE(h.l1().find(0), nullptr);
  ASSERT_NE(h.l2()->find(0), nullptr);
  EXPECT_EQ(h.l2()->find(0)->dirty, 0u);  // L1 copy is authoritative
}

TEST(Hierarchy, InclusiveL2HitPromotesAndChargesPenalty) {
  Hierarchy h(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadWrite, 0);
  h.find(0)->dirty = 0x5;
  h.fill(4, LineState::kReadOnly, 1);  // L1 conflict: 0's authority demotes
  EXPECT_EQ(h.l1().find(0), nullptr);
  ASSERT_NE(h.l2()->find(0), nullptr);
  EXPECT_EQ(h.l2()->find(0)->dirty, 0x5u);  // authority now in L2
  EXPECT_EQ(h.level_stats(0).demotions + h.level_stats(1).demotions, 1u);

  CacheLine* l = h.lookup(0, 10);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(h.hit_penalty(), inclusive_cfg().l2_hit_cycles);
  EXPECT_EQ(l->state, LineState::kReadWrite);
  EXPECT_EQ(l->dirty, 0x5u);                // authority moved back up
  EXPECT_NE(h.l1().find(0), nullptr);
  ASSERT_NE(h.l2()->find(0), nullptr);      // inclusive: tag stays
  EXPECT_EQ(h.l2()->find(0)->dirty, 0u);
  EXPECT_EQ(h.level_stats(1).hits, 1u);
  EXPECT_EQ(h.level_stats(1).promotions, 1u);

  // An L1 hit afterwards costs nothing extra.
  ASSERT_NE(h.lookup(0, 11), nullptr);
  EXPECT_EQ(h.hit_penalty(), 0u);
}

TEST(Hierarchy, InclusiveL2VictimBackInvalidatesL1Copy) {
  Hierarchy h(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  SinkRec rec;
  h.set_victim_sink(&SinkRec::record, &rec);
  // Lines 0..3 live in distinct L1 sets but fill the single L2 set.
  for (LineId l = 0; l < 4; ++l) h.fill(l, LineState::kReadOnly, l);
  h.find(0)->state = LineState::kReadWrite;
  h.find(0)->dirty = 0x9;
  ASSERT_TRUE(rec.victims.empty());
  h.fill(4, LineState::kReadOnly, 10);  // L2 evicts LRU line 0
  ASSERT_EQ(rec.victims.size(), 1u);
  // The external victim carries the authoritative (L1) state and dirty.
  EXPECT_EQ(rec.victims[0].line, 0u);
  EXPECT_EQ(rec.victims[0].state, LineState::kReadWrite);
  EXPECT_EQ(rec.victims[0].dirty, 0x9u);
  EXPECT_EQ(h.l1().find(0), nullptr);  // inclusion restored
  EXPECT_EQ(h.l2()->find(0), nullptr);
  EXPECT_EQ(h.level_stats(0).back_invals, 1u);
  EXPECT_EQ(h.stats().evictions, 1u);
}

TEST(Hierarchy, ExclusiveFillBypassesL2) {
  Hierarchy h(exclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadOnly, 0);
  EXPECT_NE(h.l1().find(0), nullptr);
  EXPECT_EQ(h.l2()->find(0), nullptr);
}

TEST(Hierarchy, ExclusiveL1VictimDemotesAndPromotionRemoves) {
  Hierarchy h(exclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadWrite, 0);
  h.find(0)->dirty = 0x3;
  h.fill(4, LineState::kReadOnly, 1);  // L1 conflict: 0 demotes into L2
  EXPECT_EQ(h.l1().find(0), nullptr);
  ASSERT_NE(h.l2()->find(0), nullptr);
  EXPECT_EQ(h.l2()->find(0)->dirty, 0x3u);
  EXPECT_EQ(h.level_stats(1).fills, 1u);

  CacheLine* l = h.lookup(0, 10);  // promote: exclusive removes the L2 copy
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->dirty, 0x3u);
  EXPECT_NE(h.l1().find(0), nullptr);
  EXPECT_EQ(h.l2()->find(0), nullptr);
  // The promotion displaced line 4 from L1 back into L2.
  EXPECT_EQ(h.l1().find(4), nullptr);
  EXPECT_NE(h.l2()->find(4), nullptr);
}

TEST(Hierarchy, ExclusiveL2OverflowExitsThroughSink) {
  Hierarchy h(exclusive_cfg(), kL1Bytes, kLine, 0, 1);
  SinkRec rec;
  h.set_victim_sink(&SinkRec::record, &rec);
  // All of 0,4,8,... conflict in L1 set 0 and share the single L2 set:
  // each fill demotes the previous line; the 6th demotion overflows L2.
  for (LineId l = 0; l <= 5 * 4; l += 4) {
    h.fill(l, LineState::kReadOnly, l);
  }
  ASSERT_EQ(rec.victims.size(), 1u);
  EXPECT_EQ(rec.victims[0].line, 0u);  // oldest demoted line
  EXPECT_EQ(h.stats().evictions, 1u);
}

TEST(Hierarchy, InvalidateMergesAuthorityFromEitherLevel) {
  // Inclusive: dirty words live on the L1 copy.
  Hierarchy hi(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  hi.fill(0, LineState::kReadWrite, 0);
  hi.find(0)->dirty = 0x3;
  auto inc = hi.invalidate(0);
  ASSERT_TRUE(inc.has_value());
  EXPECT_EQ(inc->dirty, 0x3u);
  EXPECT_EQ(hi.find(0), nullptr);
  EXPECT_EQ(hi.stats().invalidations, 1u);
  EXPECT_FALSE(hi.invalidate(0).has_value());
  EXPECT_EQ(hi.stats().invalidations, 1u);  // absent line: not counted

  // Exclusive: the line may only exist in L2 after a demotion.
  Hierarchy hx(exclusive_cfg(), kL1Bytes, kLine, 0, 1);
  hx.fill(0, LineState::kReadWrite, 0);
  hx.find(0)->dirty = 0x6;
  hx.fill(4, LineState::kReadOnly, 1);  // demote 0 into L2
  auto exc = hx.invalidate(0);
  ASSERT_TRUE(exc.has_value());
  EXPECT_EQ(exc->dirty, 0x6u);
  EXPECT_EQ(hx.find(0), nullptr);
  EXPECT_EQ(hx.stats().invalidations, 1u);
}

TEST(Hierarchy, ForEachValidVisitsEachLineOnce) {
  Hierarchy h(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadOnly, 0);
  h.fill(4, LineState::kReadOnly, 1);  // 0 demotes: L1 {4}, L2 {0, 4}
  unsigned count = 0;
  std::vector<LineId> seen;
  h.for_each_valid([&](CacheLine& cl) {
    ++count;
    seen.push_back(cl.line);
  });
  EXPECT_EQ(count, 2u);  // line 4 visited once despite two resident tags
}

TEST(Hierarchy, FindIsPureAndLookupTouches) {
  Hierarchy h(inclusive_cfg(), kL1Bytes, kLine, 0, 1);
  h.fill(0, LineState::kReadOnly, 0);
  h.fill(4, LineState::kReadOnly, 1);  // 0 now L2-only
  // find() must not promote or charge a penalty.
  ASSERT_NE(h.find(0), nullptr);
  EXPECT_EQ(h.l1().find(0), nullptr);
  const auto l2_hits_before = h.level_stats(1).hits;
  ASSERT_NE(h.lookup(0, 5), nullptr);
  EXPECT_EQ(h.level_stats(1).hits, l2_hits_before + 1);
}

// ---- lookup_l1: the L1-hit subset of lookup() -------------------------------

// A 2-way LRU L1 (so an access reorders the victims) over an inclusive L2
// roomy enough to keep every line below: even lines all map to L1 set 0.
CacheConfig two_way_cfg() {
  auto cfg = CacheConfig::with_l2(2048, 4, InclusionPolicy::kInclusive);
  cfg.l1_ways = 2;
  return cfg;
}

void expect_same_level_stats(const Hierarchy& a, const Hierarchy& b) {
  ASSERT_EQ(a.levels(), b.levels());
  for (unsigned lv = 0; lv < a.levels(); ++lv) {
    const LevelStats& x = a.level_stats(lv);
    const LevelStats& y = b.level_stats(lv);
    EXPECT_EQ(x.hits, y.hits) << "level " << lv;
    EXPECT_EQ(x.fills, y.fills) << "level " << lv;
    EXPECT_EQ(x.evictions, y.evictions) << "level " << lv;
    EXPECT_EQ(x.invalidations, y.invalidations) << "level " << lv;
    EXPECT_EQ(x.promotions, y.promotions) << "level " << lv;
    EXPECT_EQ(x.demotions, y.demotions) << "level " << lv;
    EXPECT_EQ(x.back_invals, y.back_invals) << "level " << lv;
  }
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.stats().invalidations, b.stats().invalidations);
}

std::vector<LineId> l1_lines(const Hierarchy& h) {
  std::vector<LineId> out;
  h.l1().for_each_valid([&](const CacheLine& cl) { out.push_back(cl.line); });
  return out;
}

// Leaves L1 set 0 = {0 (RO, most recent), 6 (RO)} in ways {0, 1},
// lines 2 (RO) and 4 (RW) L2-only, and hit_penalty() = the L2 hit latency.
void warm_two_way(Hierarchy& h) {
  h.fill(0, LineState::kReadOnly, 0);
  h.fill(2, LineState::kReadOnly, 1);
  h.fill(4, LineState::kReadWrite, 2);  // L1 victim: 0
  h.fill(6, LineState::kReadOnly, 3);   // L1 victim: 2
  ASSERT_NE(h.lookup(0, 4), nullptr);   // L2 hit; L1 victim: 4
  ASSERT_EQ(h.hit_penalty(), two_way_cfg().l2_hit_cycles);
}

TEST(HierarchyLookupL1, MatchesLookupOnAnL1Hit) {
  for (const bool need_rw : {false, true}) {
    Hierarchy a(two_way_cfg(), kL1Bytes, kLine, 0, 1);
    Hierarchy b(two_way_cfg(), kL1Bytes, kLine, 0, 1);
    SinkRec ra, rb;
    a.set_victim_sink(&SinkRec::record, &ra);
    b.set_victim_sink(&SinkRec::record, &rb);
    warm_two_way(a);
    warm_two_way(b);
    a.find(6)->state = LineState::kReadWrite;
    b.find(6)->state = LineState::kReadWrite;

    // Line 6 is the L1's LRU way; hitting it makes 0 the next victim.
    CacheLine* la = a.lookup(6, 9);
    CacheLine* lb = b.lookup_l1(6, need_rw);
    ASSERT_NE(la, nullptr);
    ASSERT_EQ(lb, b.l1().find(6)) << "need_rw " << need_rw;
    EXPECT_EQ(la, a.l1().find(6));
    EXPECT_EQ(a.hit_penalty(), 0u);
    EXPECT_EQ(b.hit_penalty(), 0u);
    expect_same_level_stats(a, b);

    a.fill(8, LineState::kReadOnly, 10);
    b.fill(8, LineState::kReadOnly, 10);
    EXPECT_EQ(l1_lines(a), l1_lines(b));
    EXPECT_EQ(l1_lines(b), (std::vector<LineId>{8, 6}));
    expect_same_level_stats(a, b);
    EXPECT_EQ(ra.victims.size(), rb.victims.size());
  }
}

TEST(HierarchyLookupL1, MissLeavesEveryStatAndRecencyAlone) {
  struct Case {
    const char* what;
    LineId line;
    bool need_rw;
  };
  const Case cases[] = {
      {"line absent from the node", 10, false},
      {"line only in L2", 2, false},
      {"write to a read-only L1 line", 6, true},
  };
  for (const Case& c : cases) {
    Hierarchy ref(two_way_cfg(), kL1Bytes, kLine, 0, 1);
    Hierarchy h(two_way_cfg(), kL1Bytes, kLine, 0, 1);
    warm_two_way(ref);
    warm_two_way(h);

    EXPECT_EQ(h.lookup_l1(c.line, c.need_rw), nullptr) << c.what;
    EXPECT_EQ(h.hit_penalty(), ref.hit_penalty()) << c.what;
    expect_same_level_stats(ref, h);
    EXPECT_EQ(l1_lines(h), l1_lines(ref)) << c.what;

    // Replacement state is untouched too: the next fill displaces the same
    // L1 victim (6, the LRU way — a touch would have made it 0) and every
    // level matches the untouched twin afterwards.
    ref.fill(8, LineState::kReadOnly, 9);
    h.fill(8, LineState::kReadOnly, 9);
    EXPECT_EQ(l1_lines(h), l1_lines(ref)) << c.what;
    EXPECT_EQ(l1_lines(h), (std::vector<LineId>{0, 8})) << c.what;
    ref.fill(12, LineState::kReadOnly, 10);
    h.fill(12, LineState::kReadOnly, 10);
    EXPECT_EQ(l1_lines(h), l1_lines(ref)) << c.what;
    expect_same_level_stats(ref, h);
  }
}

}  // namespace
}  // namespace lrc::cache
