// Reproduces the §4.3 sensitivity discussion (text, no figure number):
// varying cache line size, memory latency, and bandwidth, and reporting
// the LRC-vs-ERC execution-time gap.
//
// Expected shape: longer lines widen the gap (more false sharing); higher
// latency+bandwidth combinations keep a modest LRC advantage.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

namespace {

struct Config {
  const char* label;
  lrc::Cycle mem_setup;
  std::uint32_t bandwidth;
  std::uint32_t line;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) {
    // Default to the two most line-size-sensitive apps plus one neutral
    // one; a full 7-app sweep is available with --apps.
    opt.apps = {"blu", "mp3d", "fft"};
  }
  bench::print_header(opt, "Latency/bandwidth/line-size sensitivity",
                      "paper Sec. 4.3 trends discussion");

  static const Config kConfigs[] = {
      {"base (20cy, 2B/cy, 128B)", 20, 2, 128},
      {"long lines (20cy, 2B/cy, 256B)", 20, 2, 256},
      {"short lines (20cy, 2B/cy, 64B)", 20, 2, 64},
      {"high latency (40cy, 2B/cy, 128B)", 40, 2, 128},
      {"high lat+bw (40cy, 4B/cy, 128B)", 40, 4, 128},
      {"future (40cy, 4B/cy, 256B)", 40, 4, 256},
  };

  const auto apps = bench::selected_apps(opt);
  std::vector<bench::Experiment> exps;
  for (const auto& cfg : kConfigs) {
    auto adjust = [&cfg](core::SystemParams& p) {
      p.line_bytes = cfg.line;
      p.mem_setup = cfg.mem_setup;
      p.mem_bandwidth = cfg.bandwidth;
      p.bus_bandwidth = cfg.bandwidth;
      p.net_bandwidth = cfg.bandwidth;
    };
    for (const auto* app : apps) {
      exps.push_back({app, core::ProtocolKind::kERC, adjust});
      exps.push_back({app, core::ProtocolKind::kLRC, adjust});
    }
  }
  const auto results = bench::run_experiments(exps, opt);

  stats::Table table({"Config", "Application", "ERC(cycles)", "LRC(cycles)",
                      "LRC/ERC gain"});
  std::size_t i = 0;
  for (const auto& cfg : kConfigs) {
    for (const auto* app : apps) {
      const auto& erc = results[i++];
      const auto& lrc_r = results[i++];
      if (!erc.ok() || !lrc_r.ok()) continue;
      const double e = static_cast<double>(erc.report.execution_time);
      const double l = static_cast<double>(lrc_r.report.execution_time);
      table.add_row({cfg.label, std::string(app->name),
                     stats::Table::count(erc.report.execution_time),
                     stats::Table::count(lrc_r.report.execution_time),
                     stats::Table::pct((e - l) / e, 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: the gain column grows with line size and with "
      "memory\nlatency (in cycles); it stays positive across "
      "latency/bandwidth combinations\nfor the false-sharing apps.\n");
  return bench::exit_status(results);
}
