// Reproduces Figure 9: overhead analysis on the future machine of §4.3 for
// lazy, lazier, eager, and sequentially-consistent protocols.
//
// Expected shape: the lazy protocols trade increased synchronization time
// for decreased read latency and write-buffer stall time; the trade is
// more profitable than on the base machine.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  opt.future = true;
  bench::print_header(opt, "Future machine overhead analysis",
                      "paper Figure 9");

  stats::Table table({"Application", "Protocol", "cpu", "read", "write",
                      "sync", "total"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kSC, core::ProtocolKind::kERC,
            core::ProtocolKind::kLRC, core::ProtocolKind::kLRCExt});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& sc = results[i][0];
    const auto& erc = results[i][1];
    const auto& lrc_r = results[i][2];
    const auto& ext = results[i][3];
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
    add("LRC-ext", ext.report);
    add("ERC", erc.report);
    add("SC", sc.report);
  }
  std::printf("%s\n", table.to_string().c_str());
  return bench::exit_status(results);
}
