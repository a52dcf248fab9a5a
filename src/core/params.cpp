#include "core/params.hpp"

#include <sstream>
#include <stdexcept>

namespace lrc::core {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

void require_pow2(std::uint64_t v, const char* field) {
  if (!is_pow2(v)) {
    throw std::invalid_argument(std::string("SystemParams: ") + field +
                                " must be a non-zero power of two, got " +
                                std::to_string(v));
  }
}
}  // namespace

void SystemParams::validate() const {
  require_pow2(cache_bytes, "cache_bytes");
  require_pow2(line_bytes, "line_bytes");
  require_pow2(page_bytes, "page_bytes");
  if (line_bytes > page_bytes) {
    throw std::invalid_argument(
        "SystemParams: line_bytes (" + std::to_string(line_bytes) +
        ") must not exceed page_bytes (" + std::to_string(page_bytes) + ")");
  }
  require_pow2(cache.l1_ways, "cache.l1_ways");
  if (cache.l1_ways > cache_bytes / line_bytes) {
    throw std::invalid_argument(
        "SystemParams: cache.l1_ways (" + std::to_string(cache.l1_ways) +
        ") exceeds the number of L1 lines (" +
        std::to_string(cache_bytes / line_bytes) + ")");
  }
  if (cache.has_l2()) {
    require_pow2(cache.l2_bytes, "cache.l2_bytes");
    require_pow2(cache.l2_ways, "cache.l2_ways");
    if (cache.l2_ways > cache.l2_bytes / line_bytes) {
      throw std::invalid_argument(
          "SystemParams: cache.l2_ways (" + std::to_string(cache.l2_ways) +
          ") exceeds the number of L2 lines (" +
          std::to_string(cache.l2_bytes / line_bytes) + ")");
    }
    if (cache.inclusion == cache::InclusionPolicy::kInclusive &&
        cache.l2_bytes < cache_bytes) {
      throw std::invalid_argument(
          "SystemParams: inclusive cache.l2_bytes (" +
          std::to_string(cache.l2_bytes) +
          ") must be at least the L1 capacity (" +
          std::to_string(cache_bytes) + ")");
    }
  }
  if (cache.has_llc()) {
    require_pow2(cache.llc_slice_bytes, "cache.llc_slice_bytes");
    require_pow2(cache.llc_ways, "cache.llc_ways");
    if (cache.llc_ways > cache.llc_slice_bytes / line_bytes) {
      throw std::invalid_argument(
          "SystemParams: cache.llc_ways (" + std::to_string(cache.llc_ways) +
          ") exceeds the number of lines per LLC slice (" +
          std::to_string(cache.llc_slice_bytes / line_bytes) + ")");
    }
  }
}

SystemParams SystemParams::paper_default(unsigned nprocs) {
  SystemParams p;
  p.nprocs = nprocs;
  return p;
}

SystemParams SystemParams::future_machine(unsigned nprocs) {
  SystemParams p;
  p.nprocs = nprocs;
  p.mem_setup = 40;
  p.mem_bandwidth = 4;
  p.bus_bandwidth = 4;
  p.net_bandwidth = 4;
  p.line_bytes = 256;
  return p;
}

SystemParams SystemParams::test_scale(unsigned nprocs) {
  SystemParams p;
  p.nprocs = nprocs;
  p.line_bytes = 64;
  p.cache_bytes = 4 * 1024;
  return p;
}

std::string SystemParams::describe() const {
  std::ostringstream os;
  os << "System parameters (paper Table 1 unless noted):\n"
     << "  processors             " << nprocs << "\n"
     << "  cache line size        " << line_bytes << " bytes\n"
     << "  L1 cache               " << cache_bytes / 1024 << " Kbytes "
     << (cache.l1_ways == 1 ? std::string("direct-mapped")
                            : std::to_string(cache.l1_ways) + "-way " +
                                  cache::to_string(cache.l1_replacement))
     << "\n";
  if (cache.has_l2()) {
    os << "  L2 cache               " << cache.l2_bytes / 1024 << " Kbytes "
       << cache.l2_ways << "-way " << cache::to_string(cache.l2_replacement)
       << (cache.inclusion == cache::InclusionPolicy::kInclusive
               ? " inclusive"
               : " exclusive")
       << " (+" << cache.l2_hit_cycles << " cycles)\n";
  }
  if (cache.has_llc()) {
    os << "  shared LLC             " << cache.llc_slice_bytes / 1024
       << " Kbytes/slice x " << nprocs << " slices, " << cache.llc_ways
       << "-way, "
       << (cache.llc_hash == cache::SliceHash::kInterleave ? "interleaved"
                                                           : "xor-folded")
       << "\n";
  }
  os
     << "  memory setup time      " << mem_setup << " cycles\n"
     << "  memory bandwidth       " << mem_bandwidth << " bytes/cycle\n"
     << "  bus bandwidth          " << bus_bandwidth << " bytes/cycle\n"
     << "  network bandwidth      " << net_bandwidth
     << " bytes/cycle (bidirectional)\n"
     << "  switch node latency    " << switch_latency << " cycles\n"
     << "  wire latency           " << wire_latency << " cycles\n"
     << "  write notice cost      " << write_notice_cost << " cycles\n"
     << "  LRC directory access   " << lrc_dir_cost << " cycles\n"
     << "  ERC directory access   " << erc_dir_cost << " cycles\n"
     << "  write buffer           " << write_buffer_entries << " entries\n"
     << "  coalescing buffer      " << coalescing_entries << " entries\n";
  return os.str();
}

}  // namespace lrc::core
