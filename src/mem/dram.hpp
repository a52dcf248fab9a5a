// Per-node DRAM timing model: fixed setup cost plus size/bandwidth transfer,
// with a single busy channel per node (accesses serialize — this is the
// memory-contention component of the paper's back end).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lrc::mem {

struct DramParams {
  Cycle setup = 20;             // "memory setup time"
  std::uint32_t bandwidth = 2;  // bytes per cycle
};

struct DramStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  Cycle contention = 0;  // cycles requests waited for the channel
  Cycle busy = 0;        // total channel-busy cycles
};

class Dram {
 public:
  Dram(unsigned nodes, DramParams params)
      : params_(params), chans_(nodes) {
    for (Channel& c : chans_) c.cached_cost = params.setup;
  }

  /// Performs an access of `bytes` at `node` starting no earlier than `when`;
  /// returns the completion time. `is_write` only affects statistics.
  Cycle access(NodeId node, Cycle when, std::uint32_t bytes, bool is_write);

  /// Completion time of an uncontended access (for cost previews/tests).
  Cycle uncontended_cost(std::uint32_t bytes) const {
    return params_.setup + ceil_div(bytes, params_.bandwidth);
  }

  /// Whole-machine totals (per-node counters summed in node order, so the
  /// result is bit-identical regardless of which threads did the accesses).
  DramStats stats() const;
  const DramStats& node_stats(NodeId n) const { return chans_[n].stats; }
  void reset_stats() {
    for (Channel& c : chans_) c.stats = DramStats{};
  }

 private:
  // All mutable per-access state lives in the accessed node's channel.
  struct alignas(64) Channel {
    Cycle free = 0;
    std::uint32_t cached_bytes = 0;  // memoized size→cost pair (hot path)
    Cycle cached_cost = 0;
    DramStats stats;
  };

  DramParams params_;
  std::vector<Channel> chans_;
};

}  // namespace lrc::mem
