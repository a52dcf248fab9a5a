#include "bench/harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>

#include "trace/replay_cpu.hpp"
#include "trace/writer.hpp"

namespace lrc::bench {

namespace {

[[noreturn]] void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --procs N        processors (default 64, max 64)\n"
      "  --scale S        test | bench | paper (default bench)\n"
      "  --quick          alias for --scale test --procs 8\n"
      "  --paper-scale    alias for --scale paper\n"
      "  --apps a,b,...   subset of: gauss fft blu barnes cholesky\n"
      "                   locusroute mp3d (default: all)\n"
      "  --seed N         workload generator seed (default 1)\n"
      "  --cache-kb N     override cache size\n"
      "  --line N         override cache line size (bytes)\n"
      "  --hier NAME      cache-hierarchy preset (default l1):\n"
      "                   l1      single L1 (Table 1)\n"
      "                   l2      + 1 MB 8-way inclusive private L2\n"
      "                   l2x     + 1 MB 8-way exclusive private L2\n"
      "                   l2-llc  l2 plus a 1 MB/node shared sliced LLC\n"
      "  --no-validate    skip result validation\n"
      "  --jobs N         experiment-level parallelism: worker threads\n"
      "                   running independent (app, protocol) cells, each\n"
      "                   on its own Machine (default: all host cores;\n"
      "                   results are identical for any N)\n"
      "  --capture DIR    record each cell's workload stream as a trace\n"
      "                   under DIR/<app>_<protocol>/ (see DESIGN.md\n"
      "                   Sec. 11)\n"
      "  --replay DIR     replay traces from DIR/<app>_<protocol>/ with the\n"
      "                   fiber-free front end; composes with --jobs,\n"
      "                   stats bit-identical to the captured run\n",
      prog);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

Options Options::parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--procs") {
      opt.procs = static_cast<unsigned>(std::stoul(next()));
      if (opt.procs == 0 || opt.procs > kMaxProcs) usage(argv[0]);
    } else if (arg == "--scale") {
      const std::string s = next();
      if (s == "test") {
        opt.scale = Scale::kTest;
      } else if (s == "bench") {
        opt.scale = Scale::kBench;
      } else if (s == "paper") {
        opt.scale = Scale::kPaper;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--quick") {
      opt.scale = Scale::kTest;
      opt.procs = 8;
    } else if (arg == "--paper-scale") {
      opt.scale = Scale::kPaper;
    } else if (arg == "--apps") {
      opt.apps = split_csv(next());
      for (const auto& a : opt.apps) {
        if (apps::find_app(a) == nullptr) {
          std::fprintf(stderr, "unknown app: %s\n", a.c_str());
          usage(argv[0]);
        }
      }
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--cache-kb") {
      opt.cache_bytes = static_cast<std::uint32_t>(std::stoul(next())) * 1024;
    } else if (arg == "--line") {
      opt.line_bytes = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--hier") {
      opt.hier = next();
      if (opt.hier != "l1" && opt.hier != "l2" && opt.hier != "l2x" &&
          opt.hier != "l2-llc") {
        std::fprintf(stderr, "unknown hierarchy preset: %s\n",
                     opt.hier.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--no-validate") {
      opt.validate = false;
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<unsigned>(std::stoul(next()));
      if (opt.jobs == 0) usage(argv[0]);
    } else if (arg == "--capture") {
      opt.capture_dir = next();
    } else if (arg == "--replay") {
      opt.replay_dir = next();
    } else {
      usage(argv[0]);
    }
  }
  if (!opt.capture_dir.empty() && !opt.replay_dir.empty()) {
    std::fprintf(stderr, "--capture and --replay are mutually exclusive\n");
    usage(argv[0]);
  }
  return opt;
}

core::SystemParams make_params(const Options& opt) {
  core::SystemParams p = opt.future
                             ? core::SystemParams::future_machine(opt.procs)
                             : core::SystemParams::paper_default(opt.procs);
  switch (opt.scale) {
    case Scale::kTest:
      p.cache_bytes = 4 * 1024;
      break;
    case Scale::kBench:
      // Inputs are ~1/5 the paper's data volume; caches shrink in step so
      // capacity/conflict misses keep their paper-scale role (the paper
      // itself scaled caches down with its inputs, §3).
      p.cache_bytes = 32 * 1024;
      break;
    case Scale::kPaper:
      break;  // Table 1 values
  }
  if (opt.cache_bytes != 0) p.cache_bytes = opt.cache_bytes;
  if (opt.line_bytes != 0) p.line_bytes = opt.line_bytes;
  if (opt.hier == "l2") {
    p.cache = cache::CacheConfig::paper_l2();
  } else if (opt.hier == "l2x") {
    p.cache = cache::CacheConfig::with_l2(1024 * 1024, 8,
                                          cache::InclusionPolicy::kExclusive);
  } else if (opt.hier == "l2-llc") {
    p.cache = cache::CacheConfig::paper_l2().add_llc(1024 * 1024, 8);
  }
  p.seed = opt.seed;
  return p;
}

std::vector<const apps::AppInfo*> selected_apps(const Options& opt) {
  std::vector<const apps::AppInfo*> out;
  for (const auto& a : apps::registry()) {
    if (opt.apps.empty()) {
      out.push_back(&a);
      continue;
    }
    for (const auto& sel : opt.apps) {
      if (a.name == sel) out.push_back(&a);
    }
  }
  return out;
}

namespace {

RunResult run_cell(const Experiment& exp, const Options& opt) {
  const apps::AppInfo& info = *exp.app;
  const core::ProtocolKind kind = exp.kind;
  core::SystemParams params = make_params(opt);
  if (exp.adjust) exp.adjust(params);
  const std::string cell = std::string(info.name) + "_" +
                           std::string(core::to_string(kind));
  if (!opt.replay_dir.empty()) {
    // Fiber-free replay: processors re-issue the recorded streams; the
    // workload body, validation, and capture do not apply.
    core::Machine m(params, kind,
                    trace::ReplayCpu::factory(opt.replay_dir + "/" + cell));
    m.run(nullptr);
    RunResult r;
    r.report = m.report();
    r.app.valid = true;
    r.app.detail = "replay";
    return r;
  }
  core::Machine m(params, kind);
  std::unique_ptr<trace::CaptureLog> capture;
  if (!opt.capture_dir.empty()) {
    capture = std::make_unique<trace::CaptureLog>(
        opt.capture_dir + "/" + cell, opt.procs);
    capture->set_meta(std::string(info.name),
                      std::string(core::to_string(kind)), opt.seed);
    m.set_access_log(capture.get());
  }
  apps::AppConfig cfg;
  cfg.seed = opt.seed;
  cfg.validate = opt.validate;
  cfg.fence_every = exp.fence_every;
  switch (opt.scale) {
    case Scale::kTest:
      cfg.n = info.test_n;
      cfg.steps = info.test_steps;
      break;
    case Scale::kBench:
      cfg.n = info.bench_n;
      cfg.steps = info.bench_steps;
      break;
    case Scale::kPaper:
      cfg.n = info.paper_n;
      cfg.steps = info.paper_steps;
      break;
  }
  RunResult r;
  r.app = info.run(m, cfg);
  if (capture) capture->finish();
  r.report = m.report();
  if (opt.validate && !r.app.valid) {
    std::fprintf(stderr, "WARNING: %s under %s failed validation: %s\n",
                 std::string(info.name).c_str(),
                 std::string(core::to_string(kind)).c_str(),
                 r.app.detail.c_str());
  }
  return r;
}

}  // namespace

RunResult run_app(const apps::AppInfo& info, core::ProtocolKind kind,
                  const Options& opt) {
  return run_cell(Experiment{&info, kind, {}, 0}, opt);
}

unsigned effective_jobs(const Options& opt) {
  if (opt.jobs != 0) return opt.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::vector<RunResult> run_experiments(const std::vector<Experiment>& exps,
                                       const Options& opt) {
  const bool per_cell = std::any_of(
      exps.begin(), exps.end(),
      [](const Experiment& e) { return e.adjust || e.fence_every != 0; });
  if (per_cell && (!opt.capture_dir.empty() || !opt.replay_dir.empty())) {
    std::fprintf(stderr,
                 "--capture/--replay do not apply to a sweep that varies "
                 "parameters per cell\n");
    std::exit(2);
  }
  std::vector<RunResult> results(exps.size());
  auto run_one = [&](std::size_t i) {
    try {
      results[i] = run_cell(exps[i], opt);
    } catch (const std::exception& e) {
      results[i].error = e.what();
    } catch (...) {
      results[i].error = "unknown exception";
    }
  };
  const std::size_t jobs =
      std::min<std::size_t>(effective_jobs(opt), exps.size());
  if (jobs <= 1) {
    for (std::size_t i = 0; i < exps.size(); ++i) run_one(i);
  } else {
    // Each experiment runs on a fresh Machine with the same seed derivation
    // as the serial path, so this only changes wall-clock time, never
    // results. Workers pull the next unclaimed index; results land at
    // their input position.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < exps.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (std::size_t i = 0; i < exps.size(); ++i) {
    if (results[i].ok()) continue;
    std::fprintf(stderr, "%s/%s: %s\n",
                 std::string(exps[i].app->name).c_str(),
                 std::string(core::to_string(exps[i].kind)).c_str(),
                 results[i].error->c_str());
  }
  return results;
}

bool row_ok(std::span<const RunResult> row) {
  return std::all_of(row.begin(), row.end(),
                     [](const RunResult& r) { return r.ok(); });
}

int exit_status(const std::vector<std::vector<RunResult>>& matrix) {
  return std::all_of(matrix.begin(), matrix.end(), row_ok) ? 0 : 1;
}

int exit_status(std::span<const RunResult> cells) {
  return row_ok(cells) ? 0 : 1;
}

std::vector<std::vector<RunResult>> run_matrix(
    const Options& opt, const std::vector<core::ProtocolKind>& kinds) {
  const auto apps = selected_apps(opt);
  std::vector<Experiment> exps;
  exps.reserve(apps.size() * kinds.size());
  for (const auto* app : apps) {
    for (const auto kind : kinds) exps.push_back({app, kind, {}, 0});
  }
  auto flat = run_experiments(exps, opt);
  std::vector<std::vector<RunResult>> out(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    out[i].assign(std::make_move_iterator(flat.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              i * kinds.size())),
                  std::make_move_iterator(flat.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              (i + 1) * kinds.size())));
  }
  return out;
}

void print_header(const Options& opt, const std::string& title,
                  const std::string& paper_ref) {
  const core::SystemParams p = make_params(opt);
  std::printf("== %s ==\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Scale: %s, %u processors, %u KB %u-byte-line caches%s\n\n",
              opt.scale == Scale::kTest    ? "test"
              : opt.scale == Scale::kBench ? "bench (paper inputs scaled 1:1"
                                             " with caches)"
                                           : "paper",
              opt.procs, p.cache_bytes / 1024, p.line_bytes,
              opt.future ? ", future-machine parameters (Sec. 4.3)" : "");
  std::printf("%s\n", p.describe().c_str());
}

}  // namespace lrc::bench
