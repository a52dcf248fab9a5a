// Reproduces Figure 8: normalized execution time for lazy, lazier, and
// eager release consistency on the hypothetical future machine of §4.3
// (40-cycle memory startup, 4 bytes/cycle everywhere, 256-byte lines).
//
// Expected shape: LRC beats ERC on every application, by a wider margin
// than on the base machine (longer lines -> more false sharing; costlier
// misses -> avoided misses worth more).
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  opt.future = true;
  bench::print_header(opt, "Future machine: LRC vs LRC-ext vs ERC",
                      "paper Figure 8");

  stats::Table table({"Application", "SC(cycles)", "ERC", "LRC", "LRC-ext",
                      "LRC/ERC gain"});
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
    const double base = static_cast<double>(sc.report.execution_time);
    const double e = erc.report.execution_time / base;
    const double l = lrc_r.report.execution_time / base;
    const double x = ext.report.execution_time / base;
    table.add_row({std::string(apps[i]->name),
                   stats::Table::count(sc.report.execution_time),
                   stats::Table::fixed(e, 3), stats::Table::fixed(l, 3),
                   stats::Table::fixed(x, 3),
                   stats::Table::pct((e - l) / e, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: the LRC advantage over ERC widens versus Figure 4 "
      "(by\n~2-6 percentage points in the paper; mp3d reaches ~23%%).\n");
  return bench::exit_status(results);
}
