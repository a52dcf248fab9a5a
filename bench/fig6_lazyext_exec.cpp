// Reproduces Figure 6: normalized execution time of the lazy protocol and
// its lazier variant (SC = 1.0) on 64 processors.
//
// Expected shape (paper §4.3): LRC-ext is *slower* than LRC on every
// application except fft (whose barrier-batched write requests combine at
// the home nodes) — the paper's central negative result.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Normalized execution time: LRC vs LRC-ext",
                      "paper Figure 6");

  stats::Table table({"Application", "SC(cycles)", "LRC", "LRC-ext",
                      "ext penalty"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(
      opt, {core::ProtocolKind::kSC, core::ProtocolKind::kLRC,
            core::ProtocolKind::kLRCExt});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto& sc = results[i][0];
    const auto& lrc_r = results[i][1];
    const auto& ext = results[i][2];
    const double base = static_cast<double>(sc.report.execution_time);
    const double l = lrc_r.report.execution_time / base;
    const double x = ext.report.execution_time / base;
    table.add_row({std::string(apps[i]->name),
                   stats::Table::count(sc.report.execution_time),
                   stats::Table::fixed(l, 3), stats::Table::fixed(x, 3),
                   stats::Table::pct((x - l) / l, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: delaying write notices to release time HURTS on "
      "hardware\n(positive ext penalty) except on fft — a qualitative "
      "difference from software DSM.\n");
  return bench::exit_status(results);
}
