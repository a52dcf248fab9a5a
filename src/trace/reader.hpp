// Streaming trace reader: decodes one processor's `cpuNNNN.lrct` stream a
// block at a time — resident memory is two fixed buffers regardless of
// trace size, and the steady-state next() path allocates nothing. All
// malformed input surfaces as TraceError ("<file>:block <n>: <reason>"),
// never UB.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace lrc::trace {

class Reader {
 public:
  /// Opens and validates the stream header.
  explicit Reader(std::string path);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::uint32_t cpu() const { return cpu_; }
  std::uint32_t nprocs() const { return nprocs_; }

  /// Decodes the next record. Returns false at end-of-stream (the kEnd
  /// record); throws TraceError on malformed or truncated input.
  ///
  /// Inline for the common case — a read/write record lying wholly inside
  /// the resident block (room for the longest record is left before the
  /// block end) — and otherwise next_slow(), which decodes every record
  /// kind, loads blocks, and raises every error. The fast path has no side
  /// effect unless it succeeds, so a malformed varint reaches next_slow()
  /// and fails there exactly as before.
  bool next(Record& r) {
    if (!done_ && pos_ + kMaxRecordBytes <= raw_len_) {
      const std::uint8_t* p = raw_.data() + pos_;
      const std::uint8_t hdr = p[0];
      const Op op = static_cast<Op>(hdr & 0x07);
      if (op == Op::kRead || op == Op::kWrite) {
        std::uint64_t zz;
        const std::size_t n = get_varint(p + 1, p + kMaxRecordBytes, zz);
        if (n != 0) {
          pos_ += 1 + n;
          prev_addr_ = static_cast<std::uint64_t>(
              static_cast<std::int64_t>(prev_addr_) + unzigzag(zz));
          r.op = op;
          r.bytes = 1u << ((hdr >> 3) & 0x07);
          r.addr = prev_addr_;
          return true;
        }
      }
    }
    return next_slow(r);
  }

 private:
  bool next_slow(Record& r);
  bool load_block();

  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint32_t cpu_ = 0;
  std::uint32_t nprocs_ = 0;
  std::vector<std::uint8_t> raw_;
  std::vector<std::uint8_t> comp_;
  std::size_t pos_ = 0;      // decode cursor into raw_
  std::size_t raw_len_ = 0;  // valid bytes in raw_
  std::uint64_t prev_addr_ = 0;
  std::uint64_t block_idx_ = 0;  // blocks consumed (error reporting)
  bool done_ = false;
};

/// Capture-directory metadata (meta.txt).
struct TraceMeta {
  unsigned nprocs = 0;
  std::string app;
  std::string protocol;
  std::uint64_t seed = 0;
};

/// Parses `<dir>/meta.txt`; throws TraceError when missing or malformed.
TraceMeta read_meta(const std::string& dir);

/// Summary of one stream (tools/trace_info); walks every block.
struct StreamStats {
  std::uint64_t blocks = 0;
  std::uint64_t records = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t computes = 0;
  std::uint64_t syncs = 0;
};

StreamStats scan_stream(const std::string& path);

}  // namespace lrc::trace
