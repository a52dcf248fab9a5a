// Simulation-kernel microbenchmark: the pooled-event calendar-queue engine
// on the schedule/fire pattern the simulator actually generates (short
// forward deltas, many live events, events scheduling more events).
//
// Reports events/sec and heap allocations/event, as JSON on stdout and in
// BENCH_micro_engine.json, and exits 1 if the engine allocates more than
// 0.001 times per event (DESIGN.md "Simulation kernel"). Engine speed in
// the whole simulator is measured end to end by bench/e2e.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/micro_report.hpp"
#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace {

using lrc::Cycle;
using lrc::sim::Engine;

// ---------------------------------------------------------------------------
// Workload: kChains independent event chains, each hopping forward by a
// pseudo-random 1..64-cycle delta until its hop budget is spent.  This is
// the simulator's signature pattern — NIC deliveries, DRAM completions, and
// CPU wake-ups are all short-horizon reschedules with many live events.
struct Chain {
  std::uint64_t remaining = 0;
  std::uint32_t rng = 0;

  Cycle next_delta() {
    rng = rng * 1664525u + 1013904223u;
    return 1 + (rng & 63);
  }
};

// Models the mesh::Message a NIC-delivery event carries by value, so each
// event's capture is as large as the real ones.
struct Payload {
  unsigned char bytes[56] = {};
};

constexpr unsigned kChains = 256;

void hop(Engine& eng, Chain* c, Cycle t, const Payload& p) {
  c->rng += p.bytes[0];  // consume the payload so it cannot be elided
  if (--c->remaining == 0) return;
  Payload next = p;
  next.bytes[0] = static_cast<unsigned char>(c->rng);
  eng.schedule(t + c->next_delta(),
               [&eng, c, next](Cycle tt) { hop(eng, c, tt, next); });
}

std::uint64_t drive(Engine& eng, std::uint64_t total_events) {
  std::vector<Chain> chains(kChains);
  for (unsigned i = 0; i < kChains; ++i) {
    chains[i].remaining = total_events / kChains;
    chains[i].rng = 0x9e3779b9u ^ i;
    eng.schedule(0, [&eng, c = &chains[i]](Cycle t) {
      hop(eng, c, t, Payload{});
    });
  }
  eng.run();
  return eng.events_executed();
}

struct Measurement {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
};

Measurement measure(std::uint64_t total_events) {
  Engine eng;
  drive(eng, kChains * 16);  // warm up pools / heap arenas
  const std::uint64_t warm = eng.events_executed();

  const std::uint64_t allocs0 = lrc::bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t done = drive(eng, total_events) - warm;
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = lrc::bench::alloc_count();

  Measurement m;
  m.events = done;
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_sec = static_cast<double>(done) / secs;
  m.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(done);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t total = 2'000'000;
  if (argc > 1) total = std::strtoull(argv[1], nullptr, 10);

  const Measurement m = measure(total);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"micro_engine\",\n"
                "  \"provenance\": %s,\n"
                "  \"events\": %llu,\n"
                "  \"events_per_sec\": %.0f,\n"
                "  \"allocs_per_event\": %.6f\n"
                "}\n",
                lrc::bench::provenance_json().c_str(),
                static_cast<unsigned long long>(m.events), m.events_per_sec,
                m.allocs_per_event);

  std::fputs(json, stdout);
  if (FILE* f = std::fopen("BENCH_micro_engine.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  return lrc::bench::report_gates(
      "micro_engine", {{"allocs/event <= 0.001", m.allocs_per_event <= 0.001}});
}
