// Reproduces Figure 4: normalized execution time of the lazy and eager
// release-consistent protocols (sequential consistency = 1.0) on 64
// processors.
//
// Expected shape (paper §4.2): LRC outperforms ERC by ~5-20% on
// barnes / blu / gauss / locusroute / mp3d; roughly even on fft and
// cholesky; both beat SC.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Normalized execution time: LRC vs ERC vs SC",
                      "paper Figure 4");

  stats::Table table({"Application", "SC(cycles)", "ERC", "LRC",
                      "LRC/ERC gain"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kSC, core::ProtocolKind::kERC,
            core::ProtocolKind::kLRC});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& sc = results[i][0];
    const auto& erc = results[i][1];
    const auto& lrc_r = results[i][2];
    const double base = static_cast<double>(sc.report.execution_time);
    const double e = erc.report.execution_time / base;
    const double l = lrc_r.report.execution_time / base;
    table.add_row({std::string(apps[i]->name),
                   stats::Table::count(sc.report.execution_time),
                   stats::Table::fixed(e, 3), stats::Table::fixed(l, 3),
                   stats::Table::pct((e - l) / e, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Values are execution time normalized to SC = 1.000 (lower is "
      "better).\nPaper shape check: LRC beats ERC by ~5-20%% where false "
      "sharing / migratory\ndata / pivot-row contention exist; roughly even "
      "on fft and cholesky.\n");
  return bench::exit_status(results);
}
