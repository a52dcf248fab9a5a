// The micro-benches' allocation counter. alloc_count.cpp replaces the
// global operator new/delete, so every heap allocation in the process bumps
// one counter: a zero delta around a loop is a real guarantee, not an
// artifact of an instrumented subset.
#pragma once

#include <cstdint>

namespace lrc::bench {

/// Heap allocations made by the process so far.
std::uint64_t alloc_count();

}  // namespace lrc::bench
