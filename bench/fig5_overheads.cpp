// Reproduces Figure 5: breakdown of aggregate cycles (over all processors)
// into cpu / read-latency / write-buffer / synchronization components for
// the lazy, eager, and sequentially-consistent protocols, each expressed
// as a percentage of the SC protocol's total.
//
// Expected shape (paper §4.2): LRC shows lower read latency and write
// stalls but higher synchronization time than ERC.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Overhead analysis: LRC, ERC, SC",
                      "paper Figure 5");

  stats::Table table({"Application", "Protocol", "cpu", "read", "write",
                      "sync", "total"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kSC, core::ProtocolKind::kERC,
            core::ProtocolKind::kLRC});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& sc = results[i][0];
    const auto& erc = results[i][1];
    const auto& lrc_r = results[i][2];
    const double base = static_cast<double>(sc.report.breakdown.total());
    auto add = [&](const char* proto, const core::Report& r) {
      auto pct = [&](stats::StallKind k) {
        return stats::Table::pct(r.breakdown[k] / base, 1);
      };
      table.add_row({std::string(apps[i]->name), proto,
                     pct(stats::StallKind::kCpu), pct(stats::StallKind::kRead),
                     pct(stats::StallKind::kWrite),
                     pct(stats::StallKind::kSync),
                     stats::Table::pct(r.breakdown.total() / base, 1)});
    };
    add("LRC", lrc_r.report);
    add("ERC", erc.report);
    add("SC", sc.report);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "All entries are %% of the SC protocol's aggregate cycles for that "
      "app.\nPaper shape check: LRC trades higher sync for lower read+write "
      "overhead.\n");
  return bench::exit_status(results);
}
