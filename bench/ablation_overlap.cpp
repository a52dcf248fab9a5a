// Ablation (paper §2): "Much of the latency of [acquire-time invalidation]
// can be hidden behind the latency of the lock acquisition itself."
//
// LRC normally starts applying buffered write notices the moment the lock
// request leaves, finishing any stragglers at grant time. This bench turns
// that overlap off (everything processed after the grant arrives) and
// measures the synchronization-time cost on the lock-heavy applications.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"barnes", "cholesky", "locusroute", "mp3d"};
  bench::print_header(opt, "Acquire-overlap ablation (LRC)",
                      "paper Sec. 2 invalidation/lock-latency overlap");

  const auto apps = bench::selected_apps(opt);
  std::vector<bench::Experiment> exps;
  for (const auto* app : apps) {
    for (bool overlap : {true, false}) {
      exps.push_back({app, core::ProtocolKind::kLRC,
                      [overlap](core::SystemParams& p) {
                        p.lrc_overlap_acquire = overlap;
                      }});
    }
  }
  const auto results = bench::run_experiments(exps, opt);

  stats::Table table({"Application", "Overlap(cycles)", "No overlap",
                      "Slowdown", "Sync overlap", "Sync no-ovl"});
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto& on = results[2 * a];
    const auto& off = results[2 * a + 1];
    if (!on.ok() || !off.ok()) continue;
    const auto on_time = on.report.execution_time;
    const auto off_time = off.report.execution_time;
    table.add_row(
        {std::string(apps[a]->name), stats::Table::count(on_time),
         stats::Table::count(off_time),
         stats::Table::pct((static_cast<double>(off_time) - on_time) /
                               static_cast<double>(on_time),
                           1),
         stats::Table::count(on.report.breakdown[stats::StallKind::kSync]),
         stats::Table::count(off.report.breakdown[stats::StallKind::kSync])});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected: disabling the overlap moves notice processing into the\n"
      "acquire's critical path, inflating synchronization time.\n");
  return bench::exit_status(results);
}
