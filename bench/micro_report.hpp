// What every micro-bench reports besides its own numbers: where the
// numbers came from, and whether its bounds hold.
#pragma once

#include <initializer_list>
#include <string>

namespace lrc::bench {

/// `{"commit": ..., "build_type": ..., "compiler": ..., "host_cores": N}`
/// for the JSON record. The commit is the source tree's (with "-dirty" for
/// uncommitted changes), or "unknown" outside a git checkout.
std::string provenance_json();

/// One bound a micro-bench enforces; `ok` is false when it is missed.
/// Write the comparison so that a NaN measurement misses it.
struct Gate {
  const char* name;
  bool ok;
};

/// Prints one line per gate and returns the process exit status: 0 when
/// every gate holds, 1 (after "<bench>: GATE FAILURE") otherwise.
int report_gates(const char* bench, std::initializer_list<Gate> gates);

}  // namespace lrc::bench
