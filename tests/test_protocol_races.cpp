// Directed regression tests for the protocol races the MSI family must
// survive: silent evictions of lines with transactions in flight, and
// forwards that reach an owner which no longer holds the line.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/machine.hpp"
#include "proto/msi.hpp"

namespace lrc::core {
namespace {

constexpr Cycle kGap = 50'000;

struct RaceFixture : ::testing::TestWithParam<ProtocolKind> {
  RaceFixture() : m(SystemParams::paper_default(8), GetParam()) {
    arr = m.alloc<double>(4096, "data");
    // A second segment whose lines conflict with arr's in the cache.
    const std::uint32_t sets = m.params().cache_bytes / m.params().line_bytes;
    stride_elems = static_cast<std::size_t>(sets) * m.params().line_bytes /
                   sizeof(double);
    conflict = m.alloc<double>(stride_elems + 4096, "conflict");
  }
  proto::Directory& dir() {
    return dynamic_cast<proto::ProtocolBase&>(m.protocol()).directory();
  }
  /// Element index within `conflict` that maps to the same set as arr[i].
  std::size_t alias_of(std::size_t i) {
    const LineId la = m.amap().line_of(arr.addr(i));
    const LineId lc = m.amap().line_of(conflict.addr(0));
    const std::uint32_t sets = m.params().cache_bytes / m.params().line_bytes;
    const std::size_t per_line = m.params().line_bytes / sizeof(double);
    // Advance conflict's first line to the same set as la.
    const std::uint32_t set_a = la % sets;
    const std::uint32_t set_c = lc % sets;
    const std::uint32_t delta = (set_a + sets - set_c) % sets;
    return static_cast<std::size_t>(delta) * per_line;
  }

  Machine m;
  SharedArray<double> arr;
  SharedArray<double> conflict;
  std::size_t stride_elems = 0;
};

TEST_P(RaceFixture, EvictionDuringUpgradeRecovers) {
  // Write to a read-only line, then displace it before the upgrade
  // acknowledgement returns. The protocol must re-fetch and complete; this
  // deadlocked ERC before the FwdNack/refetch paths existed.
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) return;
    (void)arr.get(cpu, 0);              // RO copy
    arr.put(cpu, 0, 1.0);               // upgrade transaction starts
    (void)conflict.get(cpu, alias_of(0));  // evicts arr line 0 immediately
    cpu.compute(kGap);
    // The write must still be globally visible and re-readable.
    EXPECT_DOUBLE_EQ(arr.get(cpu, 0), 1.0);
  });
  EXPECT_DOUBLE_EQ(m.peek<double>(arr.addr(0)), 1.0);
}

TEST_P(RaceFixture, ForwardToOwnerWhoSilentlyLostTheLine) {
  // Processor 0 becomes the registered writer but loses its copy to a
  // conflict eviction; processor 1 then write-misses the same line. Under
  // the MSI protocols the home forwards to 0, which must NACK so the home
  // serves 1 from memory.
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      (void)arr.get(cpu, 0);
      arr.put(cpu, 0, 1.0);
      (void)conflict.get(cpu, alias_of(0));  // silent/clean displacement
      cpu.compute(3 * kGap);
    } else if (cpu.id() == 1) {
      cpu.compute(kGap);
      arr.put(cpu, 1, 2.0);  // same line
      cpu.compute(kGap);
      EXPECT_DOUBLE_EQ(arr.get(cpu, 0), 1.0);
    }
  });
  EXPECT_DOUBLE_EQ(m.peek<double>(arr.addr(1)), 2.0);
}

TEST_P(RaceFixture, ReadDuringOutstandingWriteTransaction) {
  // A read that lands while the same processor's write transaction is in
  // flight must merge, not duplicate requests.
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) return;
    arr.put(cpu, 512, 3.5);             // write miss in flight
    EXPECT_DOUBLE_EQ(arr.get(cpu, 512), 3.5);  // bypass or merge
    EXPECT_DOUBLE_EQ(arr.get(cpu, 513), 0.0);  // other word, same line
  });
}

TEST_P(RaceFixture, WritebackRacesWithNewRequest) {
  // Owner writes a line, evicts it (writeback in flight), then immediately
  // re-reads it. Per-pair FIFO means the home sees the writeback first and
  // must serve the re-read from fresh memory.
  m.run([&](Cpu& cpu) {
    if (cpu.id() != 0) return;
    arr.put(cpu, 0, 7.0);
    cpu.compute(kGap);                   // let the write complete
    (void)conflict.get(cpu, alias_of(0));  // evict (dirty -> writeback)
    EXPECT_DOUBLE_EQ(arr.get(cpu, 0), 7.0);  // immediate re-read
  });
  auto* e = dir().find(m.amap().line_of(arr.addr(0)));
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->is_sharer(0));
}

TEST_P(RaceFixture, ConcurrentWritersToDistinctWords) {
  // All processors hammer distinct words of one line with interleaved
  // evictions; data must come out intact whatever the protocol does.
  m.run([&](Cpu& cpu) {
    const std::size_t w = cpu.id();
    for (int round = 0; round < 10; ++round) {
      arr.put(cpu, w, static_cast<double>(round + 1));
      (void)conflict.get(cpu, alias_of(0) + 16 * cpu.id());
      cpu.compute(17 * (cpu.id() + 1));
    }
    cpu.barrier(0);
  });
  for (unsigned p = 0; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(m.peek<double>(arr.addr(p)), 10.0) << "word " << p;
  }
}

TEST_P(RaceFixture, UpgradeLosesToConcurrentWriter) {
  // Two processors race an upgrade and an exclusive fetch on one line.
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) {
      (void)arr.get(cpu, 0);
      arr.put(cpu, 0, 1.0);  // upgrade
    } else if (cpu.id() == 1) {
      (void)arr.get(cpu, 0);
      arr.put(cpu, 1, 2.0);  // upgrade on the same line, different word
    }
    cpu.barrier(0);
    EXPECT_DOUBLE_EQ(arr.get(cpu, 0), 1.0);
    EXPECT_DOUBLE_EQ(arr.get(cpu, 1), 2.0);
  });
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RaceFixture,
                         ::testing::Values(ProtocolKind::kSC,
                                           ProtocolKind::kERC,
                                           ProtocolKind::kLRC,
                                           ProtocolKind::kLRCExt),
                         [](const auto& info) {
                           std::string n(to_string(info.param));
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// mp3d under ERC at 32 processors, seed 117, reaches the MSI forward/
// writeback race: an owner nacks a forward after its dirty writeback has
// already served the requester, and the home later takes that stale nack
// for the nack of a newer forward to the same owner. The newer forward's
// own response then reaches a home with no forward pending. The handler
// must name that failure (node, line, message kind) rather than act on an
// idle directory entry, in every build type. This cell is expected to flip
// to a clean, validating run once the home stops accepting a stale nack;
// the assertion below changes with it.
TEST(ProtocolRaces, Mp3dErcSeed117NamesStaleForwardResponse) {
  const apps::AppInfo* info = apps::find_app("mp3d");
  ASSERT_NE(info, nullptr);
  SystemParams params = SystemParams::paper_default(32);
  params.cache_bytes = 4096;
  params.seed = 117;
  Machine m(params, ProtocolKind::kERC);
  apps::AppConfig cfg;
  cfg.n = info->test_n;
  cfg.steps = info->test_steps;
  cfg.seed = 117;
  try {
    info->run(m, cfg);
    FAIL() << "expected a ProtocolError from the stale-nack race";
  } catch (const proto::ProtocolError& e) {
    EXPECT_STREQ(e.what(),
                 "node 3: InvalAck from node 8 for line 123: forward "
                 "response with no forward pending");
  }
}

}  // namespace
}  // namespace lrc::core
