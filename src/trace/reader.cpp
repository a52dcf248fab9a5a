#include "trace/reader.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "trace/codec.hpp"

namespace lrc::trace {

Reader::Reader(std::string path) : path_(std::move(path)) {
  f_ = std::fopen(path_.c_str(), "rb");
  if (f_ == nullptr) {
    throw TraceError(path_, 0, "cannot open");
  }
  std::uint8_t hdr[kFileHeaderBytes];
  if (std::fread(hdr, 1, sizeof(hdr), f_) != sizeof(hdr)) {
    throw TraceError(path_, 0, "truncated file header");
  }
  if (get_u32(hdr) != kMagic) {
    throw TraceError(path_, 0, "bad magic (not an lrct trace)");
  }
  if (get_u16(hdr + 4) != kVersion) {
    throw TraceError(path_, 0, "unsupported version " +
                                   std::to_string(get_u16(hdr + 4)));
  }
  cpu_ = get_u32(hdr + 8);
  nprocs_ = get_u32(hdr + 12);
  raw_.resize(kBlockRawBytes + kMaxRecordBytes);
  comp_.resize(kBlockRawBytes + kBlockRawBytes / 16 + 64);
}

Reader::~Reader() {
  if (f_ != nullptr) std::fclose(f_);
}

bool Reader::load_block() {
  std::uint8_t hdr[kBlockHeaderBytes];
  const std::size_t got = std::fread(hdr, 1, sizeof(hdr), f_);
  if (got == 0) return false;  // clean EOF at a block boundary
  if (got != sizeof(hdr)) {
    throw TraceError(path_, block_idx_, "truncated block header");
  }
  const std::uint32_t raw_len = get_u32(hdr);
  const std::uint32_t comp_len = get_u32(hdr + 4);
  const std::uint32_t checksum = get_u32(hdr + 12);
  const std::uint8_t codec = hdr[16];
  if (raw_len == 0 || raw_len > raw_.size()) {
    throw TraceError(path_, block_idx_,
                     "bad raw length " + std::to_string(raw_len));
  }
  if (comp_len > comp_.size()) {
    throw TraceError(path_, block_idx_,
                     "bad compressed length " + std::to_string(comp_len));
  }
  switch (static_cast<Codec>(codec)) {
    case Codec::kRaw:
      if (comp_len != raw_len) {
        throw TraceError(path_, block_idx_, "raw block length mismatch");
      }
      if (std::fread(raw_.data(), 1, raw_len, f_) != raw_len) {
        throw TraceError(path_, block_idx_, "truncated block payload");
      }
      break;
    case Codec::kLrz:
      if (std::fread(comp_.data(), 1, comp_len, f_) != comp_len) {
        throw TraceError(path_, block_idx_, "truncated block payload");
      }
      if (!lrz_decompress(comp_.data(), comp_len, raw_.data(), raw_len)) {
        throw TraceError(path_, block_idx_, "corrupt lrz payload");
      }
      break;
    default:
      throw TraceError(path_, block_idx_,
                       "unknown codec " + std::to_string(codec));
  }
  if (fnv1a32(raw_.data(), raw_len) != checksum) {
    throw TraceError(path_, block_idx_, "checksum mismatch");
  }
  pos_ = 0;
  raw_len_ = raw_len;
  prev_addr_ = 0;
  ++block_idx_;
  return true;
}

bool Reader::next_slow(Record& r) {
  if (done_) return false;
  if (pos_ >= raw_len_) {
    if (!load_block()) {
      throw TraceError(path_, block_idx_,
                       "truncated stream (missing end record)");
    }
  }
  const std::uint8_t hdr = raw_[pos_++];
  const Op op = static_cast<Op>(hdr & 0x07);
  r.op = op;
  switch (op) {
    case Op::kRead:
    case Op::kWrite: {
      r.bytes = 1u << ((hdr >> 3) & 0x07);
      std::uint64_t zz;
      const std::size_t n =
          get_varint(raw_.data() + pos_, raw_.data() + raw_len_, zz);
      if (n == 0) throw TraceError(path_, block_idx_ - 1, "truncated record");
      pos_ += n;
      prev_addr_ = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(prev_addr_) + unzigzag(zz));
      r.addr = prev_addr_;
      return true;
    }
    case Op::kCompute:
    case Op::kLock:
    case Op::kUnlock:
    case Op::kBarrier: {
      const std::size_t n =
          get_varint(raw_.data() + pos_, raw_.data() + raw_len_, r.arg);
      if (n == 0) throw TraceError(path_, block_idx_ - 1, "truncated record");
      pos_ += n;
      return true;
    }
    case Op::kFence:
      return true;
    case Op::kEnd:
      done_ = true;
      return false;
  }
  throw TraceError(path_, block_idx_ - 1,
                   "bad op " + std::to_string(hdr & 0x07));
}

TraceMeta read_meta(const std::string& dir) {
  const std::string path = dir + "/meta.txt";
  std::ifstream in(path);
  if (!in) throw TraceError(path, 0, "cannot open");
  TraceMeta meta;
  unsigned version = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "lrctrace") {
      ls >> version;
    } else if (key == "nprocs") {
      ls >> meta.nprocs;
    } else if (key == "app") {
      ls >> meta.app;
    } else if (key == "protocol") {
      ls >> meta.protocol;
    } else if (key == "seed") {
      ls >> meta.seed;
    }
  }
  if (version != kVersion) {
    throw TraceError(path, 0,
                     "missing or unsupported lrctrace version " +
                         std::to_string(version));
  }
  if (meta.nprocs == 0) throw TraceError(path, 0, "missing nprocs");
  return meta;
}

StreamStats scan_stream(const std::string& path) {
  Reader rd(path);
  StreamStats st;
  Record r;
  while (rd.next(r)) {
    ++st.records;
    switch (r.op) {
      case Op::kRead:
        ++st.reads;
        break;
      case Op::kWrite:
        ++st.writes;
        break;
      case Op::kCompute:
        ++st.computes;
        break;
      case Op::kLock:
      case Op::kUnlock:
      case Op::kBarrier:
      case Op::kFence:
        ++st.syncs;
        break;
      case Op::kEnd:
        break;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    // Re-walk the framing for the raw/compressed totals.
    std::fseek(f, static_cast<long>(kFileHeaderBytes), SEEK_SET);
    std::uint8_t hdr[kBlockHeaderBytes];
    while (std::fread(hdr, 1, sizeof(hdr), f) == sizeof(hdr)) {
      ++st.blocks;
      st.raw_bytes += get_u32(hdr);
      const std::uint32_t comp_len = get_u32(hdr + 4);
      st.file_bytes += kBlockHeaderBytes + comp_len;
      std::fseek(f, static_cast<long>(comp_len), SEEK_CUR);
    }
    st.file_bytes += kFileHeaderBytes;
    std::fclose(f);
  }
  return st;
}

}  // namespace lrc::trace
