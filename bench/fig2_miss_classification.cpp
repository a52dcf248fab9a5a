// Reproduces the paper's miss-classification table ("Figure 2"):
// percentage of cold / true-sharing / false-sharing / eviction / write
// misses for each application under eager release consistency.
//
// Expected shape (paper §4.1): barnes, blu, locusroute and mp3d show a
// significant false-sharing component; cholesky, fft and gauss show almost
// none.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  bench::print_header(opt, "Miss classification under eager RC",
                      "paper Figure 2 (Sec. 4.1 table)");

  stats::Table table({"Application", "Cold", "True", "False", "Eviction",
                      "Write", "Misses"});
  const auto apps = bench::selected_apps(opt);
  const auto results = bench::run_matrix(opt, {core::ProtocolKind::kERC});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!bench::row_ok(results[i])) continue;
    const auto* app = apps[i];
    const auto& r = results[i][0];
    const auto& mc = r.report.miss_classes;
    const double total = static_cast<double>(mc.total());
    auto pct = [&](stats::MissClass c) {
      return stats::Table::pct(total > 0 ? mc[c] / total : 0.0);
    };
    table.add_row({std::string(app->name), pct(stats::MissClass::kCold),
                   pct(stats::MissClass::kTrueSharing),
                   pct(stats::MissClass::kFalseSharing),
                   pct(stats::MissClass::kEviction),
                   pct(stats::MissClass::kWrite),
                   stats::Table::count(mc.total())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: false-sharing significant for barnes/blu/"
      "locusroute/mp3d,\nnear zero for cholesky/fft/gauss.\n");
  return bench::exit_status(results);
}
