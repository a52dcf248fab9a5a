// Shared benchmark harness: option parsing, machine construction, and the
// app-by-protocol experiment runner used by every per-figure binary.
//
// Scales (DESIGN.md §4):
//   test   tiny inputs, 4 KiB caches — CI smoke (--quick)
//   bench  scaled paper inputs, 32 KiB caches — the default; inputs and
//          caches shrink together, preserving the paper's miss behaviour
//   paper  original §3 inputs, 128 KiB caches — slow on one host core
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/machine.hpp"

namespace lrc::bench {

enum class Scale { kTest, kBench, kPaper };

struct Options {
  unsigned procs = 64;
  Scale scale = Scale::kBench;
  std::vector<std::string> apps;  // empty = all seven
  std::uint64_t seed = 1;
  bool future = false;            // §4.3 future-machine parameters
  std::uint32_t cache_bytes = 0;  // 0 = scale default
  std::uint32_t line_bytes = 0;   // 0 = machine default
  std::string hier;               // cache-hierarchy preset; empty/"l1" = L1 only
  bool validate = true;
  unsigned jobs = 0;              // worker threads; 0 = hardware_concurrency
  std::string capture_dir;        // record per-CPU traces under this dir
  std::string replay_dir;         // replay traces from this dir (fiber-free)

  /// Parses --procs/--scale/--quick/--apps/--seed/--cache-kb/--line/
  /// --hier/--no-validate/--jobs/--capture/--replay; exits with
  /// usage on error.
  static Options parse(int argc, char** argv);
};

/// Worker-thread count the options imply (>= 1; resolves jobs == 0).
unsigned effective_jobs(const Options& opt);

/// System parameters implied by the options (Table 1 or future machine,
/// with scale-appropriate cache size).
core::SystemParams make_params(const Options& opt);

struct RunResult {
  core::Report report;
  apps::AppResult app;
  std::optional<std::string> error;  // why the cell ended early, if it did

  bool ok() const { return !error; }
};

/// Runs one application under one protocol on a fresh machine.
RunResult run_app(const apps::AppInfo& info, core::ProtocolKind kind,
                  const Options& opt);

/// One cell of an experiment sweep: an application under a protocol.
/// Ablation sweeps vary the machine or the workload per cell; such cells
/// cannot be captured or replayed, since their traces would share one
/// directory.
struct Experiment {
  const apps::AppInfo* app = nullptr;
  core::ProtocolKind kind{};
  /// Applied to make_params(opt) before the cell's Machine is built.
  std::function<void(core::SystemParams&)> adjust;
  unsigned fence_every = 0;  // apps::AppConfig::fence_every
};

/// Runs independent experiments on a pool of effective_jobs(opt) worker
/// threads (each on a fresh Machine — simulations share no mutable state).
/// Results come back in input order, and every run uses the same
/// deterministic seed derivation as run_app, so the reports are
/// bit-identical to a serial --jobs 1 sweep. A cell that throws ends only
/// itself: its result carries the error, and once every cell is done each
/// failure is printed to stderr as "<app>/<protocol>: <error>", in input
/// order.
std::vector<RunResult> run_experiments(const std::vector<Experiment>& exps,
                                       const Options& opt);

/// Runs the full selected-apps × kinds matrix in parallel;
/// result[i][j] pairs selected_apps(opt)[i] with kinds[j].
std::vector<std::vector<RunResult>> run_matrix(
    const Options& opt, const std::vector<core::ProtocolKind>& kinds);

/// True when every cell of a table row finished. The tables leave out the
/// other rows: their numbers are relative to a cell that has none.
bool row_ok(std::span<const RunResult> row);

/// Exit status of a harness binary: 0 when every cell finished, else 1.
int exit_status(const std::vector<std::vector<RunResult>>& matrix);
int exit_status(std::span<const RunResult> cells);

/// The applications selected by the options, in paper order.
std::vector<const apps::AppInfo*> selected_apps(const Options& opt);

/// Prints the standard experiment header (parameters + provenance).
void print_header(const Options& opt, const std::string& title,
                  const std::string& paper_ref);

}  // namespace lrc::bench
