#include "mem/address_map.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace lrc::mem {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

AddressMap::AddressMap(unsigned nodes, std::uint32_t line_bytes,
                       std::uint32_t page_bytes, HomePolicy policy)
    : nodes_(nodes),
      line_bytes_(line_bytes),
      page_bytes_(page_bytes),
      policy_(policy) {
  if (nodes == 0) throw std::invalid_argument("AddressMap: zero nodes");
  if (!is_pow2(line_bytes) || !is_pow2(page_bytes) || page_bytes < line_bytes) {
    throw std::invalid_argument(
        "AddressMap: line/page sizes must be powers of two, page >= line");
  }
  if (line_bytes < kWordBytes) {
    throw std::invalid_argument("AddressMap: line shorter than a word");
  }
  if (line_bytes / kWordBytes > 64) {
    throw std::invalid_argument("AddressMap: line too long for 64-bit masks");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
  page_shift_ = static_cast<unsigned>(std::countr_zero(page_bytes));
  line_mask_ = static_cast<Addr>(line_bytes) - 1;
}

WordMask AddressMap::word_mask(Addr a, std::uint32_t bytes) const {
  const unsigned first = word_in_line(a);
  const unsigned last = word_in_line(a + bytes - 1);
  assert(line_of(a) == line_of(a + bytes - 1) &&
         "access must not straddle a cache line");
  const unsigned count = last - first + 1;
  const WordMask span =
      count >= 64 ? ~WordMask{0} : (WordMask{1} << count) - 1;
  return span << first;
}

NodeId AddressMap::resolve_home(std::uint64_t page, NodeId toucher) {
  if (page >= page_home_.size()) {
    page_home_.resize(page + 1, kInvalidNode);
  }
  NodeId& home = page_home_[page];
  if (home == kInvalidNode) {
    home = (policy_ == HomePolicy::kFirstTouch && toucher != kInvalidNode)
               ? toucher
               : static_cast<NodeId>(page % nodes_);
  }
  return home;
}

}  // namespace lrc::mem
