// Ablation (paper §4.2, gauss discussion): "One could argue that the eager
// protocol could also use the write-through policy ... However this would
// be detrimental to the performance of other applications. For the lazy
// protocol, write-through is necessary for correctness purposes."
//
// ERC-WT is eager release consistency with the lazy protocol's
// write-through + coalescing-buffer data path bolted on. Comparing
// ERC / ERC-WT / LRC separates how much of LRC's behaviour comes from the
// data path versus from laziness itself.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Write-through data-path ablation (ERC vs ERC-WT)",
                      "paper Sec. 4.2 write-policy discussion");

  stats::Table table(
      {"Application", "ERC(cycles)", "ERC-WT", "LRC", "WT penalty on eager"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kERC, core::ProtocolKind::kERCWT,
            core::ProtocolKind::kLRC});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& erc = results[i][0];
    const auto& wt = results[i][1];
    const auto& lrc_r = results[i][2];
    const double e = static_cast<double>(erc.report.execution_time);
    table.add_row({std::string(apps[i]->name),
                   stats::Table::count(erc.report.execution_time),
                   stats::Table::fixed(wt.report.execution_time / e, 3),
                   stats::Table::fixed(lrc_r.report.execution_time / e, 3),
                   stats::Table::pct(
                       (wt.report.execution_time - e) / e, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Values normalized to ERC = 1.000. Expected: ERC-WT pays write-through\n"
      "traffic without gaining laziness — the paper's argument that LRC's\n"
      "advantage is not merely its write policy.\n");
  return bench::exit_status(results);
}
