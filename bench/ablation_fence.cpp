// Ablation (paper §4.2): for programs with data races, "the lazy protocol
// can match the performance of the eager protocol simply by adding fence
// operations ... that force the protocol processor to process
// invalidations at regular intervals."
//
// This bench runs the two racy applications (locusroute, mp3d) under LRC
// with fences every {off, 64, 16, 4} work items and prints execution time
// plus the solution-quality line, with ERC as the freshness reference.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

namespace {

struct Config {
  const char* label;
  lrc::core::ProtocolKind kind;
  unsigned fence_every;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"locusroute", "mp3d"};
  bench::print_header(opt, "Fence-period ablation for racy programs",
                      "paper Sec. 4.2 (fences bound invalidation staleness)");

  // The first config is the baseline of the "vs LRC" column.
  static const Config kConfigs[] = {
      {"LRC, no fences", core::ProtocolKind::kLRC, 0},
      {"LRC, fence/64", core::ProtocolKind::kLRC, 64},
      {"LRC, fence/16", core::ProtocolKind::kLRC, 16},
      {"LRC, fence/4", core::ProtocolKind::kLRC, 4},
      {"ERC (reference)", core::ProtocolKind::kERC, 0},
  };
  const auto apps = bench::selected_apps(opt);
  std::vector<bench::Experiment> exps;
  for (const auto* app : apps) {
    for (const auto& c : kConfigs) {
      exps.push_back({app, c.kind, {}, c.fence_every});
    }
  }
  const auto results = bench::run_experiments(exps, opt);

  stats::Table table({"Application", "Config", "Exec cycles", "vs LRC",
                      "Quality / validation"});
  const std::size_t n = std::size(kConfigs);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& base = results[a * n];
    if (!base.ok()) continue;
    for (std::size_t c = 0; c < n; ++c) {
      const auto& r = results[a * n + c];
      if (!r.ok()) continue;
      table.add_row(
          {std::string(apps[a]->name), kConfigs[c].label,
           stats::Table::count(r.report.execution_time),
           stats::Table::fixed(
               static_cast<double>(r.report.execution_time) /
                   static_cast<double>(base.report.execution_time),
               3),
           r.app.detail});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected: tighter fence periods trade execution time for fresher\n"
      "data (quality approaches the eager reference), per the paper's "
      "remedy.\n");
  return bench::exit_status(results);
}
