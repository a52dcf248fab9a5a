// Reproduces Figure 7: overhead analysis (cpu / read / write / sync, as a
// percentage of SC) for the lazy protocol, its lazier variant, and SC.
//
// Expected shape (paper §4.3): LRC-ext improves miss latency (read
// component) but pays more in synchronization than it saves.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Overhead analysis: LRC, LRC-ext, SC",
                      "paper Figure 7");

  stats::Table table({"Application", "Protocol", "cpu", "read", "write",
                      "sync", "total"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kSC, core::ProtocolKind::kLRC,
            core::ProtocolKind::kLRCExt});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& sc = results[i][0];
    const auto& lrc_r = results[i][1];
    const auto& ext = results[i][2];
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
    add("SC", sc.report);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: LRC-ext lowers the read component but inflates "
      "sync.\n");
  return bench::exit_status(results);
}
