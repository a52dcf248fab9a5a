// Fundamental simulator-wide types and small helpers.
#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>

namespace lrc {

/// Simulated time, in processor clock cycles.
using Cycle = std::uint64_t;

/// Node (processor/memory/protocol-processor tuple) identifier.
using NodeId = std::uint32_t;

/// Byte address in the simulated shared address space.
using Addr = std::uint64_t;

/// Cache-line number: Addr / line_size. Global (not per-node).
using LineId = std::uint64_t;

/// Synchronization variable (lock or barrier) identifier.
using SyncId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Maximum processor count supported by the bitmask-based directory.
inline constexpr unsigned kMaxProcs = 64;

/// Bitmask over processors; bit p set == processor p is a member.
using ProcMask = std::uint64_t;

inline constexpr ProcMask proc_bit(NodeId p) { return ProcMask{1} << p; }

/// Mask over words within a cache line (supports lines up to 64 words).
using WordMask = std::uint64_t;

/// Integer ceiling division; used for all bandwidth/size cycle charges.
constexpr Cycle ceil_div(std::uint64_t num, std::uint64_t den) {
  return (num + den - 1) / den;
}

}  // namespace lrc
