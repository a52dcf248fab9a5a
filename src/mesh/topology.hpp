// 2-D mesh topology: node placement and hop-distance computation.
// The simulated machine is an R x C mesh (as near square as possible);
// routing is dimension-ordered, so the hop count between two nodes is
// their Manhattan distance.
//
// `Nic::send` asks for a hop count on every message, so distances are
// precomputed once into an N x N table (at most 64x64 bytes) and
// `mean_hops()` — O(N^2) if recomputed — is memoized at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace lrc::mesh {

class Topology {
 public:
  /// Builds a near-square mesh with `nodes` nodes. The row count is the
  /// largest divisor of `nodes` not exceeding sqrt(nodes) (worst case 1),
  /// so the mesh is always exactly rectangular: rows * cols == nodes.
  explicit Topology(unsigned nodes);

  unsigned nodes() const { return nodes_; }
  unsigned rows() const { return rows_; }
  unsigned cols() const { return cols_; }

  unsigned row_of(NodeId n) const { return n / cols_; }
  unsigned col_of(NodeId n) const { return n % cols_; }

  /// Manhattan hop distance between two nodes (0 for self-messages).
  unsigned hops(NodeId a, NodeId b) const {
    return hop_[a * nodes_ + b];
  }

  /// Average hop distance over all ordered node pairs (for reporting).
  double mean_hops() const { return mean_hops_; }

  /// Largest node count a Topology supports. Protocol-backed machines are
  /// further limited to kMaxProcs by the bitmask directory.
  static constexpr unsigned kMaxNodes = 1024;

 private:
  unsigned nodes_;
  unsigned rows_;
  unsigned cols_;
  std::vector<std::uint8_t> hop_;  // [a * nodes + b] -> Manhattan distance
  double mean_hops_ = 0.0;
};

}  // namespace lrc::mesh
