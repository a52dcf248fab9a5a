// Trace front-end microbenchmark (DESIGN.md §11): fiber-mode execution vs
// trace capture vs fiber-free replay on the fig4 fft workload (64
// processors, bench scale, LRC).
//
// Measures and gates the trace front end's contract numbers:
//   * replay throughput  >= 1.10x fiber-mode accesses/sec (both serial, so
//     the ratio is host-portable);
//   * capture overhead   <= 1.20x the plain fiber run;
//   * compressed trace   <= 25% of the naive 13-byte/record encoding;
//   * steady-state decode allocates nothing (Reader::next over every
//     captured stream under a counting global operator new).
//
// The three modes run interleaved, kRounds rounds of fiber, capture, replay
// in turn, and the two timing gates use the median of the per-round
// ratios: a host-load swing then moves both sides of a ratio together, and
// one slow round cannot decide the gate.
//
// Writes BENCH_trace_replay.json (with commit, build type, compiler and
// host-core provenance) and exits non-zero when a gate fails, so the CI
// bench-smoke job enforces the targets directly and
// check_bench_regression.py guards the recorded ratios against drift.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "core/report.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"

// Counting global allocator: every operator-new in the process bumps the
// counter, so a zero delta around the decode loop is a real guarantee, not
// an artifact of an instrumented subset.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lrc {
namespace {

constexpr unsigned kProcs = 64;
constexpr const char* kApp = "fft";
constexpr core::ProtocolKind kKind = core::ProtocolKind::kLRC;
constexpr int kRounds = 5;  // interleaved fiber/capture/replay rounds
static_assert(kRounds % 2 == 1, "the median is the middle round");

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

bench::Options base_options() {
  bench::Options opt;
  // Bench scale: enough accesses (~1M) that capture's fixed per-stream file
  // cost amortizes; test scale would measure 64 file creations, not the
  // per-record encode path.
  opt.scale = bench::Scale::kBench;
  opt.procs = kProcs;
  opt.apps = {kApp};
  opt.validate = false;  // replay has no host-side results to validate
  opt.jobs = 1;
  return opt;
}

// Process-CPU seconds of one run_app configuration.
double run_seconds(const bench::Options& opt, std::uint64_t* accesses) {
  const auto* app = bench::selected_apps(opt).front();
  const double t0 = cpu_seconds();
  const auto res = bench::run_app(*app, kKind, opt);
  const double dt = cpu_seconds() - t0;
  if (accesses != nullptr) *accesses = res.report.cache.references();
  return dt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The source tree's commit (with "-dirty" for uncommitted changes), or
// "unknown" outside a git checkout.
std::string source_commit() {
  std::string out;
  const std::string cmd = "git -C \"" LRCSIM_SOURCE_DIR
                          "\" describe --always --dirty --abbrev=12 "
                          "2>/dev/null";
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

struct DecodeStats {
  std::uint64_t records = 0;
  std::uint64_t accesses = 0;
  std::uint64_t allocs = 0;  // inside the next() loops only
};

// Decodes every stream once; Reader construction (buffer setup) is outside
// the counted window, the per-record next() path is inside it.
DecodeStats decode_all(const std::string& dir, unsigned nprocs) {
  DecodeStats d;
  for (unsigned p = 0; p < nprocs; ++p) {
    trace::Reader r(dir + "/" + trace::stream_name(p));
    trace::Record rec;
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    while (r.next(rec)) {
      ++d.records;
      if (rec.op == trace::Op::kRead || rec.op == trace::Op::kWrite) {
        ++d.accesses;
      }
    }
    d.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
  }
  return d;
}

}  // namespace
}  // namespace lrc

int main() {
  using namespace lrc;

  const std::string cap_root = "micro_trace_capture";
  const std::string cell =
      cap_root + "/" + std::string(kApp) + "_" +
      std::string(core::to_string(kKind));

  std::printf("micro_trace: capture / compress / fiber-free replay\n");
  std::printf("host cores: %u\n", std::thread::hardware_concurrency());
  std::printf("workload: %s, %u procs, bench scale, %s\n\n", kApp, kProcs,
              core::to_string(kKind).data());

  // Interleaved rounds: each replay reads the capture made just before it.
  std::uint64_t accesses = 0;
  const bench::Options fiber_opt = base_options();
  bench::Options cap_opt = base_options();
  cap_opt.capture_dir = cap_root;
  bench::Options rep_opt = base_options();
  rep_opt.replay_dir = cap_root;
  std::vector<double> fiber_s, capture_s, replay_s, overheads, speedups;
  for (int r = 0; r < kRounds; ++r) {
    fiber_s.push_back(run_seconds(fiber_opt, &accesses));
    capture_s.push_back(run_seconds(cap_opt, nullptr));
    replay_s.push_back(run_seconds(rep_opt, nullptr));
    overheads.push_back(capture_s.back() / fiber_s.back());
    speedups.push_back(fiber_s.back() / replay_s.back());
    std::printf("  round %d  fiber %.4f s  capture %.4f s (%.2fx)  "
                "replay %.4f s (%.2fx)\n",
                r + 1, fiber_s.back(), capture_s.back(), overheads.back(),
                replay_s.back(), speedups.back());
  }
  const double fiber_sec = median(fiber_s);
  const double capture_sec = median(capture_s);
  const double replay_sec = median(replay_s);
  const double capture_overhead = median(overheads);
  const double speedup = median(speedups);
  std::printf("\n  median of %d rounds:\n", kRounds);
  std::printf("  fiber    %8.4f s  (%llu accesses, %.0f accesses/s)\n",
              fiber_sec, (unsigned long long)accesses,
              static_cast<double>(accesses) / fiber_sec);
  std::printf("  capture  %8.4f s  (%.2fx fiber)\n", capture_sec,
              capture_overhead);
  std::printf("  replay   %8.4f s  (%.2fx fiber throughput)\n", replay_sec,
              speedup);

  // Trace size vs the naive 13-byte/record encoding.
  std::uint64_t file_bytes = 0, records = 0;
  for (unsigned p = 0; p < kProcs; ++p) {
    const auto s = trace::scan_stream(cell + "/" + trace::stream_name(p));
    file_bytes += s.file_bytes;
    records += s.records;
  }
  const double naive_bytes =
      static_cast<double>(records) * trace::kNaiveRecordBytes;
  const double compression = static_cast<double>(file_bytes) / naive_bytes;
  std::printf("  trace    %llu records, %llu bytes on disk (%.1f%% of "
              "naive %0.f)\n",
              (unsigned long long)records, (unsigned long long)file_bytes,
              100.0 * compression, naive_bytes);

  // Steady-state decode allocations.
  const DecodeStats dec = decode_all(cell, kProcs);
  const double allocs_per_access =
      static_cast<double>(dec.allocs) / static_cast<double>(dec.accesses);
  std::printf("  decode   %llu records, %llu allocs in next() loop "
              "(%.6f/access)\n",
              (unsigned long long)dec.records, (unsigned long long)dec.allocs,
              allocs_per_access);

  std::printf("\n");
  struct Gate {
    const char* name;
    bool ok;
  } gates[] = {
      {"median replay >= 1.10x fiber", speedup >= 1.10},
      {"median capture <= 1.20x fiber", capture_overhead <= 1.20},
      {"compressed <= 25% of naive", compression <= 0.25},
      {"decode allocs == 0", dec.allocs == 0},
  };
  bool all_ok = true;
  for (const Gate& g : gates) {
    std::printf("  %-30s %s\n", g.name, g.ok ? "ok" : "FAIL");
    all_ok = all_ok && g.ok;
  }

  FILE* f = std::fopen("BENCH_trace_replay.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"micro_trace\",\n");
    std::fprintf(f,
                 "  \"provenance\": {\"commit\": \"%s\", "
                 "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                 "\"host_cores\": %u},\n",
                 source_commit().c_str(), LRCSIM_BUILD_TYPE, __VERSION__,
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"trace\": {\n");
    std::fprintf(f, "    \"host_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"app\": \"%s\", \"procs\": %u, "
                 "\"protocol\": \"%s\",\n",
                 kApp, kProcs, core::to_string(kKind).data());
    std::fprintf(f, "    \"accesses\": %llu, \"records\": %llu,\n",
                 (unsigned long long)accesses, (unsigned long long)records);
    std::fprintf(f, "    \"rounds\": %d,\n", kRounds);
    std::fprintf(f,
                 "    \"fiber_sec\": %.4f, \"capture_sec\": %.4f, "
                 "\"replay_sec\": %.4f,\n",
                 fiber_sec, capture_sec, replay_sec);
    std::fprintf(f, "    \"capture_overhead\": %.3f,\n", capture_overhead);
    std::fprintf(f,
                 "    \"file_bytes\": %llu, \"naive_bytes\": %.0f, "
                 "\"compression_ratio\": %.4f,\n",
                 (unsigned long long)file_bytes, naive_bytes, compression);
    std::fprintf(f, "    \"replay_allocs_per_access\": %.6f,\n",
                 allocs_per_access);
    std::fprintf(f, "    \"speedup\": %.3f\n", speedup);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_trace_replay.json\n");
  }

  if (!all_ok) {
    std::printf("micro_trace: GATE FAILURE\n");
    return 1;
  }
  return 0;
}
