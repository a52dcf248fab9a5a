#include "mesh/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace lrc::mesh {

Topology::Topology(unsigned nodes) : nodes_(nodes) {
  if (nodes == 0 || nodes > kMaxNodes) {
    throw std::invalid_argument("Topology: node count must be in [1, 1024]");
  }
  // Largest divisor of `nodes` not exceeding sqrt(nodes); the loop always
  // terminates at a divisor (worst case rows == 1), so the mesh is exactly
  // rectangular.
  rows_ = static_cast<unsigned>(std::floor(std::sqrt(static_cast<double>(nodes))));
  while (rows_ > 1 && nodes % rows_ != 0) --rows_;
  cols_ = nodes / rows_;
  assert(rows_ * cols_ == nodes_);

  hop_.resize(static_cast<std::size_t>(nodes_) * nodes_);
  std::uint64_t total = 0;
  for (NodeId a = 0; a < nodes_; ++a) {
    for (NodeId b = 0; b < nodes_; ++b) {
      const int dr = static_cast<int>(row_of(a)) - static_cast<int>(row_of(b));
      const int dc = static_cast<int>(col_of(a)) - static_cast<int>(col_of(b));
      const unsigned h = static_cast<unsigned>(std::abs(dr) + std::abs(dc));
      hop_[static_cast<std::size_t>(a) * nodes_ + b] =
          static_cast<std::uint8_t>(h);
      if (a != b) total += h;
    }
  }
  if (nodes_ > 1) {
    mean_hops_ = static_cast<double>(total) /
                 (static_cast<double>(nodes_) * (nodes_ - 1));
  }
}

}  // namespace lrc::mesh
