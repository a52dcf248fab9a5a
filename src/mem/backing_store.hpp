// Functional backing store for the simulated shared address space.
// Timing is modeled elsewhere (caches, DRAM, protocols); this class holds
// the actual bytes so workloads compute real results, plus a simple bump
// allocator for shared segments.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace lrc::mem {

class BackingStore {
 public:
  explicit BackingStore(std::size_t capacity_bytes = 0);

  /// Allocates `bytes` aligned to `align` (power of two). Returns the base
  /// address of the new segment. Optionally records a segment name for
  /// debugging dumps.
  Addr allocate(std::size_t bytes, std::size_t align,
                std::string name = {});

  std::size_t used() const { return next_; }
  std::size_t capacity() const { return data_.size(); }

  template <typename T>
  T load(Addr a) const {
    check(a, sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + a, sizeof(T));
    return v;
  }

  template <typename T>
  void store(Addr a, const T& v) {
    check(a, sizeof(T));
    std::memcpy(data_.data() + a, &v, sizeof(T));
  }

  struct Segment {
    std::string name;
    Addr base;
    std::size_t bytes;
  };
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  void check(Addr a, std::size_t n) const {
    if (a + n > data_.size()) {
      throw std::out_of_range("BackingStore: access beyond allocated space");
    }
  }

  std::vector<std::uint8_t> data_;
  std::size_t next_ = 0;
  std::vector<Segment> segments_;
};

}  // namespace lrc::mem
