// Memory-system microbenchmark: throughput of the per-access hot path
// (directory, outstanding-transaction table, address mapping) under a
// sharing-heavy LRC workload, and the zero-allocation property of the
// library's flat containers and cache hierarchy.
//
// Three measurements, reported as JSON on stdout and in
// BENCH_micro_memsys.json:
//
//  1. Whole-simulator: simulated-accesses/sec on a 16-node LRC run whose
//     working set is widely shared and cache-hostile, so nearly every
//     access walks the directory/OT path (write notices fan out to ~15
//     sharers, each ack walking the home directory again). Throughput is
//     measured on the marginal iterations (2N vs N runs), which also
//     yields the steady-state heap-allocation rate per access.
//
//  2. Hierarchy: the same workload with a two-level private cache stack
//     (8 KiB L1 + 32 KiB 4-way inclusive L2), run in rounds interleaved
//     with the single-level one and reported as the median per-round
//     throughput ratio over it, so the figure is host-independent; plus a
//     direct Hierarchy hit-path loop (L1 hits and L2 promotions only).
//
//  3. Component: an LRC-shaped op stream (directory entry touch + notice
//     collections, OT allocate/merge/drain, address line/word/home math)
//     driven through proto::Directory, cache::OtTable and mem::AddressMap.
//
// The bench exits 1 unless the component loop and the hit-path loop
// allocate nothing in steady state (<= 0.0005/op), both whole-sim runs
// allocate <= 0.001 times per access, and the two-level stack keeps
// >= 0.46x the single-level throughput (DESIGN.md "Memory-system hot path").
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/micro_report.hpp"
#include "cache/config.hpp"
#include "cache/hierarchy.hpp"
#include "cache/ot_table.hpp"
#include "core/machine.hpp"
#include "core/params.hpp"
#include "mem/address_map.hpp"
#include "proto/directory.hpp"

namespace {

using namespace lrc;

// Process-CPU-time clock: the benchmark hosts are often oversubscribed, so
// wall-clock throughput is dominated by scheduler noise. CPU seconds track
// the work this process actually did; all throughput figures use them.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Whole-simulator phase.

struct SimTotals {
  std::uint64_t accesses = 0;
  double seconds = 0;
  std::uint64_t allocs = 0;
};

SimTotals run_sim(unsigned iters, const cache::CacheConfig& cfg) {
  constexpr unsigned kProcs = 16;
  constexpr unsigned kLines = 512;   // 64 KiB footprint, 8 KiB caches
  constexpr unsigned kWordsPerLine = 32;

  core::SystemParams p = core::SystemParams::paper_default(kProcs);
  p.cache_bytes = 8 * 1024;  // cache-hostile: conflict misses + evictions
  p.cache = cfg;
  core::Machine m(p, core::ProtocolKind::kLRC);
  auto data = m.alloc<std::uint32_t>(kLines * kWordsPerLine, "shared");

  const std::uint64_t a0 = bench::alloc_count();
  const double t0 = cpu_seconds();
  m.run([&](core::Cpu& cpu) {
    const unsigned np = cpu.nprocs();
    const unsigned id = cpu.id();
    for (unsigned it = 0; it < iters; ++it) {
      // Every processor sweeps the array: every line widely shared.
      for (unsigned l = 0; l < kLines; ++l) {
        (void)data.get(cpu, l * kWordsPerLine + (id % kWordsPerLine));
      }
      // Strided writers: each write to a shared line turns it Weak and
      // fans write notices out to ~15 sharers (each ack re-walks the
      // home directory entry).
      for (unsigned l = id; l < kLines; l += np) {
        data.put(cpu, l * kWordsPerLine + ((it + id) % kWordsPerLine),
                 it + id);
      }
      // Lock hand-off: release drains (write buffer + OT + write-throughs)
      // and acquire-side notice application.
      cpu.lock(0);
      data.put(cpu, (it % kLines) * kWordsPerLine, it);
      cpu.unlock(0);
      cpu.barrier(0);
    }
  });
  const double t1 = cpu_seconds();

  SimTotals t;
  const auto& cs = m.report().cache;
  t.accesses = cs.read_hits + cs.read_misses + cs.write_hits +
               cs.write_misses + cs.upgrade_misses;
  t.seconds = t1 - t0;
  t.allocs = bench::alloc_count() - a0;
  return t;
}

struct SimRate {
  std::uint64_t accesses = 0;  // in the marginal iterations
  double accesses_per_sec = 0;
  double allocs_per_access = 0;
};

// The marginal cost of the second half of a doubled run removes machine
// construction, pool growth, and first-touch effects from both the
// throughput and the allocation rate.
SimRate marginal(unsigned iters, const cache::CacheConfig& cfg) {
  const SimTotals half = run_sim(iters, cfg);
  const SimTotals full = run_sim(2 * iters, cfg);
  SimRate r;
  r.accesses = full.accesses - half.accesses;
  const double d_acc = static_cast<double>(r.accesses);
  r.accesses_per_sec = d_acc / (full.seconds - half.seconds);
  // Signed: a full run with fewer allocations than its half must not wrap.
  r.allocs_per_access =
      (static_cast<double>(full.allocs) - static_cast<double>(half.allocs)) /
      d_acc;
  return r;
}

// Folds one round into the reported figures: the best throughput (even
// process-CPU time fluctuates on an oversubscribed host, and the
// least-interfered run is the one that reflects the code) and the worst
// allocation rate.
void keep(SimRate& acc, const SimRate& r) {
  acc.accesses = r.accesses;
  acc.accesses_per_sec = std::max(acc.accesses_per_sec, r.accesses_per_sec);
  acc.allocs_per_access = std::max(acc.allocs_per_access, r.allocs_per_access);
}

// ---------------------------------------------------------------------------
// Component phase. The op stream: a deterministic transaction-shaped mix
// over a shared working set, mirroring what one write to a shared line
// costs the memory system under LRC. Per transaction: address math
// (line/word/home), the home-side directory touch (home_write_req shape:
// membership masks plus, every 4th transaction, a write-notice
// collection), the requester-side OT allocate/merge, one home re-walk per
// notice ack (home_notice_ack re-looks the entry up and ticks every open
// countdown), and the reply-side OT lookup. Every kDrainPeriod
// transactions the OT table drains completely (the release pattern).

constexpr unsigned kProcsC = 16;
constexpr unsigned kLinesC = 4096;
constexpr std::uint32_t kLineBytes = 128;
constexpr std::uint32_t kPageBytes = 4096;
constexpr unsigned kDrainPeriod = 64;

std::uint64_t drive_ops(proto::Directory& dir, cache::OtTable& ot,
                        mem::AddressMap& amap, std::uint64_t ops) {
  std::uint32_t rng = 0x2545f491u;
  std::uint64_t sink = 0;
  std::vector<LineId> open;  // lines with a live OT entry this period
  open.reserve(kDrainPeriod);
  for (std::uint64_t i = 0; i < ops; ++i) {
    rng = rng * 1664525u + 1013904223u;
    const LineId l = (rng >> 8) % kLinesC;
    const Addr a = static_cast<Addr>(l) * kLineBytes + ((rng >> 3) & 124);
    const NodeId p = rng % kProcsC;

    // Address math (every protocol hook does this).
    const LineId line = amap.line_of(a);
    const unsigned word = amap.word_in_line(a);
    sink += amap.home_of(a) + word;

    // Home-side directory touch (home_write_req shape).
    auto& e = dir.entry(line);
    e.sharers |= proc_bit(p);
    e.writers |= proc_bit(p);
    const unsigned notices = (i & 3) == 0 ? 2 : 0;
    if (notices != 0) {
      e.notices_outstanding += notices;
      e.collections.push_back({p, notices}, dir.col_pool());
    }
    sink += e.notices_outstanding;

    // Requester-side OT traffic (allocate or merge).
    bool created = false;
    auto& oe = ot.get_or_create(line, &created);
    oe.words |= WordMask{1} << word;
    if (created) {
      oe.acks_pending = 1;
      open.push_back(line);
    }

    // Notice acks: each one re-walks the home entry and ticks the open
    // countdowns (home_notice_ack shape).
    for (unsigned k = 0; k < notices; ++k) {
      auto& ea = dir.entry(line);
      ea.collections.erase_if(dir.col_pool(),
                              [&](proto::DirEntry::NoticeCollection& c) {
                                if (--c.remaining != 0) return false;
                                ++sink;  // a collection completed
                                return true;
                              });
      if (ea.notices_outstanding > 0) --ea.notices_outstanding;
    }

    // Reply arrival: the requester looks its transaction back up.
    if (auto* oa = ot.find(line)) {
      oa->acks_pending = 0;
      sink += static_cast<std::uint64_t>(oa->words & 1);
    }

    if ((i + 1) % kDrainPeriod == 0) {
      // Release: the OT table drains completely.
      for (LineId ln : open) ot.erase(ln);
      open.clear();
    }
  }
  sink += ot.stats().allocated + ot.stats().merged;
  return sink;
}

struct OpsMeasurement {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  std::uint64_t sink = 0;
};

OpsMeasurement measure_ops(std::uint64_t ops) {
  proto::Directory dir;
  cache::OtTable ot;
  mem::AddressMap amap(kProcsC, kLineBytes, kPageBytes);

  // Warm up: touch the full working set so growth is done before timing.
  OpsMeasurement m;
  m.sink = drive_ops(dir, ot, amap, kLinesC * 4);

  const std::uint64_t a0 = bench::alloc_count();
  const double t0 = cpu_seconds();
  m.sink += drive_ops(dir, ot, amap, ops);
  const double t1 = cpu_seconds();
  const std::uint64_t a1 = bench::alloc_count();

  const double secs = t1 - t0;
  m.ops_per_sec = static_cast<double>(ops) / secs;
  m.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return m;
}

// ---------------------------------------------------------------------------
// Hierarchy phase.

// Two-level private stack for the hierarchy cell: the same 8 KiB L1 (made
// 2-way to put the set-associative victim pick on the hot path) with a
// 32 KiB 4-way inclusive L2 behind it, so the workload's conflict victims
// land in L2 instead of re-walking the directory.
cache::CacheConfig hier_config() {
  auto cfg = cache::CacheConfig::with_l2(32 * 1024, 4,
                                         cache::InclusionPolicy::kInclusive);
  cfg.l1_ways = 2;
  return cfg;
}

// Direct hit-path loop: a Hierarchy whose working set exactly fills the
// L2 (256 lines over 64 four-way sets), swept in a mixed pseudo-random
// order so every access after warmup is either an L1 hit or an L2
// hit-promotion (which demotes an L1 victim back onto its L2 tag). The
// loop must allocate nothing in steady state: the flat containers'
// zero-allocation property extends to the multi-level cache stack.
OpsMeasurement measure_hier_hit_path(std::uint64_t ops) {
  constexpr std::uint32_t kL1Bytes = 8 * 1024;
  constexpr std::uint32_t kLineB = 128;
  constexpr unsigned kSet = 256;  // == L2 lines: everything fits, nothing exits
  cache::Hierarchy h(hier_config(), kL1Bytes, kLineB, /*node=*/0, /*seed=*/1);

  std::uint32_t rng = 0x9e3779b9u;
  std::uint64_t sink = 0;
  std::uint64_t now = 0;
  auto touch = [&] {
    rng = rng * 1664525u + 1013904223u;
    const LineId line = (rng >> 8) % kSet;
    cache::CacheLine* cl = h.lookup(line, static_cast<Cycle>(now));
    if (cl == nullptr) {
      h.fill(line, cache::LineState::kReadOnly, static_cast<Cycle>(now));
      cl = h.find(line);
    }
    sink += static_cast<std::uint64_t>(cl->state != cache::LineState::kInvalid) +
            h.hit_penalty();
    ++now;
  };

  for (unsigned i = 0; i < 8 * kSet; ++i) touch();  // warmup: fill both levels

  OpsMeasurement m;
  const std::uint64_t a0 = bench::alloc_count();
  const double t0 = cpu_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) touch();
  const double t1 = cpu_seconds();
  const std::uint64_t a1 = bench::alloc_count();

  m.sink = sink;
  m.ops_per_sec = static_cast<double>(ops) / (t1 - t0);
  m.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return m;
}

constexpr int kRounds = 5;  // interleaved single-/two-level rounds
static_assert(kRounds % 2 == 1, "the median is the middle round");

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 24;
  std::uint64_t ops = 4'000'000;
  if (argc > 1) iters = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
  if (argc > 2) ops = std::strtoull(argv[2], nullptr, 10);

  // Whole-simulator rounds: a marginal pair on the single-level stack,
  // then one on the two-level stack. The two-level figure is the median of
  // the per-round throughput ratios, so a host-load swing moves both sides
  // of a ratio together and one slow round cannot decide the gate. The
  // untimed warm-up runs come first: the first Machine in a process makes
  // one-off allocations its successors do not, so a half run that came
  // first would show more allocations than its full run.
  const lrc::cache::CacheConfig l1 = lrc::cache::CacheConfig::l1_only();
  const lrc::cache::CacheConfig l2 = hier_config();
  (void)run_sim(iters, l1);
  (void)run_sim(iters, l2);
  SimRate sim, hier;
  std::vector<double> ratios;
  for (int r = 0; r < kRounds; ++r) {
    const SimRate s = marginal(iters, l1);
    const SimRate h = marginal(iters, l2);
    keep(sim, s);
    keep(hier, h);
    ratios.push_back(h.accesses_per_sec / s.accesses_per_sec);
  }
  std::sort(ratios.begin(), ratios.end());
  const double hier_over_l1 = ratios[kRounds / 2];
  const OpsMeasurement hit_path = measure_hier_hit_path(ops);
  const OpsMeasurement component = measure_ops(ops);

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"micro_memsys\",\n"
      "  \"provenance\": %s,\n"
      "  \"rounds\": %d,\n"
      "  \"sim\": {\"accesses\": %llu, \"accesses_per_sec\": %.0f,\n"
      "          \"allocs_per_access\": %.6f},\n"
      "  \"hier\": {\"accesses\": %llu, \"accesses_per_sec\": %.0f,\n"
      "           \"throughput_over_l1_only\": %.2f,\n"
      "           \"allocs_per_access\": %.6f,\n"
      "           \"hit_path_ops_per_sec\": %.0f,\n"
      "           \"hit_path_allocs_per_op\": %.4f},\n"
      "  \"component\": {\"ops_per_sec\": %.0f, \"allocs_per_op\": %.4f}\n"
      "}\n",
      lrc::bench::provenance_json().c_str(), kRounds,
      static_cast<unsigned long long>(sim.accesses), sim.accesses_per_sec,
      sim.allocs_per_access, static_cast<unsigned long long>(hier.accesses),
      hier.accesses_per_sec, hier_over_l1, hier.allocs_per_access,
      hit_path.ops_per_sec, hit_path.allocs_per_op, component.ops_per_sec,
      component.allocs_per_op);

  std::fputs(json, stdout);
  std::printf("// sinks: component=%llu hit_path=%llu\n",
              static_cast<unsigned long long>(component.sink),
              static_cast<unsigned long long>(hit_path.sink));
  if (FILE* f = std::fopen("BENCH_micro_memsys.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }

  // The whole-simulator rates cover everything the component loops cannot
  // see (protocol bookkeeping, NIC, events); above 0.001/access a
  // per-access allocation has crept back into the sim path
  // (pending-invalidation sets were 0.5/access before they moved to
  // util::FlatSet).
  return lrc::bench::report_gates(
      "micro_memsys",
      {{"component allocs/op <= 0.0005", component.allocs_per_op <= 0.0005},
       {"hit-path allocs/op <= 0.0005", hit_path.allocs_per_op <= 0.0005},
       {"sim allocs/access <= 0.001", sim.allocs_per_access <= 0.001},
       {"hier allocs/access <= 0.001", hier.allocs_per_access <= 0.001},
       {"hier throughput >= 0.46x L1-only", hier_over_l1 >= 0.46}});
}
