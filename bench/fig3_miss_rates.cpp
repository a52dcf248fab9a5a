// Reproduces the paper's miss-rate table ("Figure 3"): overall miss rate
// of each application under Eager, Lazy, and Lazy-ext release consistency.
//
// Expected shape (paper §4.2): lazy <= eager everywhere; lazy-ext <= lazy;
// equality for the no-false-sharing applications (cholesky, fft).
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Miss rates per protocol",
                      "paper Figure 3 (Sec. 4.2 table)");

  stats::Table table({"Application", "Eager", "Lazy", "Lazy-ext"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kERC, core::ProtocolKind::kLRC,
            core::ProtocolKind::kLRCExt});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& erc = results[i][0];
    const auto& lrc_r = results[i][1];
    const auto& ext = results[i][2];
    table.add_row({std::string(apps[i]->name),
                   stats::Table::pct(erc.report.miss_rate(), 2),
                   stats::Table::pct(lrc_r.report.miss_rate(), 2),
                   stats::Table::pct(ext.report.miss_rate(), 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: Lazy <= Eager for every app; Lazy-ext <= Lazy.\n");
  return bench::exit_status(results);
}
