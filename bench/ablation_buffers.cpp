// Ablation (paper Table 1 / §4.2): the relaxed protocols use a 4-entry
// write buffer; the lazy protocols add a 16-entry coalescing buffer. This
// bench sweeps both sizes to show where the paper's defaults sit.
#include <cstdio>
#include <span>

#include "bench/harness.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"blu", "mp3d"};
  bench::print_header(opt, "Write-buffer / coalescing-buffer size sweep",
                      "paper Table 1 buffer parameters");

  static constexpr unsigned kWb[] = {1, 2, 4, 8, 16};
  static constexpr unsigned kCb[] = {4, 8, 16, 32, 64};
  static constexpr core::ProtocolKind kWbKinds[] = {core::ProtocolKind::kERC,
                                                    core::ProtocolKind::kLRC};
  const auto apps = bench::selected_apps(opt);
  std::vector<bench::Experiment> exps;
  auto add = [&](const apps::AppInfo* app, core::ProtocolKind kind,
                 unsigned wb, unsigned cb) {
    exps.push_back({app, kind, [wb, cb](core::SystemParams& p) {
                      p.write_buffer_entries = wb;
                      p.coalescing_entries = cb;
                    }});
  };
  for (const auto* app : apps) {
    for (auto kind : kWbKinds) {
      for (unsigned wb : kWb) add(app, kind, wb, 16);
    }
  }
  for (const auto* app : apps) {
    for (unsigned cb : kCb) add(app, core::ProtocolKind::kLRC, 4, cb);
  }
  const auto results = bench::run_experiments(exps, opt);

  // Each row is the next run of consecutive cells, normalized to the first.
  static_assert(std::size(kWb) == std::size(kCb));
  std::size_t next = 0;
  auto normalized = [&](std::vector<std::string> row) {
    const auto cells = std::span(results).subspan(next, std::size(kWb));
    next += cells.size();
    if (!bench::row_ok(cells)) return std::vector<std::string>{};
    const double base = static_cast<double>(cells[0].report.execution_time);
    for (const auto& r : cells) {
      row.push_back(stats::Table::fixed(r.report.execution_time / base, 3));
    }
    return row;
  };

  stats::Table wb_table({"Application", "Protocol", "WB=1", "WB=2", "WB=4*",
                         "WB=8", "WB=16"});
  for (const auto* app : apps) {
    for (auto kind : kWbKinds) {
      auto row = normalized(
          {std::string(app->name), std::string(core::to_string(kind))});
      if (!row.empty()) wb_table.add_row(std::move(row));
    }
  }
  std::printf("Write-buffer sweep (execution time normalized to WB=1; the\n"
              "paper's configuration is WB=4):\n%s\n",
              wb_table.to_string().c_str());

  stats::Table cb_table(
      {"Application", "CB=4", "CB=8", "CB=16*", "CB=32", "CB=64"});
  for (const auto* app : apps) {
    auto row = normalized({std::string(app->name)});
    if (!row.empty()) cb_table.add_row(std::move(row));
  }
  std::printf("Coalescing-buffer sweep under LRC (normalized to CB=4; the\n"
              "paper's configuration is CB=16):\n%s\n",
              cb_table.to_string().c_str());
  return bench::exit_status(results);
}
