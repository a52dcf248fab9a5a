#include "trace/writer.hpp"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "trace/codec.hpp"

namespace lrc::trace {

std::string stream_name(unsigned cpu) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "cpu%04u.lrct", cpu);
  return buf;
}

CaptureLog::CaptureLog(std::string dir, unsigned nprocs)
    : dir_(std::move(dir)), streams_(nprocs) {
  std::filesystem::create_directories(dir_);
  comp_.resize(kBlockRawBytes + kBlockRawBytes / 16 + 64);
  for (unsigned p = 0; p < nprocs; ++p) {
    Stream& s = streams_[p];
    const std::string path = dir_ + "/" + stream_name(p);
    s.f = std::fopen(path.c_str(), "wb");
    if (s.f == nullptr) {
      throw std::runtime_error("trace capture: cannot open " + path);
    }
    // Slack past the block size so a record never straddles the flush check.
    s.raw.resize(kBlockRawBytes + kMaxRecordBytes);
    std::uint8_t hdr[kFileHeaderBytes] = {};
    put_u32(hdr, kMagic);
    put_u16(hdr + 4, kVersion);
    put_u32(hdr + 8, p);
    put_u32(hdr + 12, nprocs);
    if (std::fwrite(hdr, 1, sizeof(hdr), s.f) != sizeof(hdr)) {
      throw std::runtime_error("trace capture: write failed on " + path);
    }
  }
}

CaptureLog::~CaptureLog() {
  try {
    finish();
  } catch (...) {
    // Destructor backstop only; explicit finish() surfaces errors.
  }
}

void CaptureLog::set_meta(std::string app, std::string protocol,
                          std::uint64_t seed) {
  app_ = std::move(app);
  protocol_ = std::move(protocol);
  seed_ = seed;
}

void CaptureLog::append(Stream& s, const std::uint8_t* rec, std::size_t n) {
  assert(s.raw_pos + n <= s.raw.size());
  std::memcpy(s.raw.data() + s.raw_pos, rec, n);
  s.raw_pos += n;
  ++s.nrecords;
  ++records_;
  if (s.raw_pos >= kBlockRawBytes) flush_block(s);
}

void CaptureLog::flush_block(Stream& s) {
  if (s.nrecords == 0) return;
  const std::uint8_t* raw = s.raw.data();
  const std::size_t raw_len = s.raw_pos;
  Codec codec = Codec::kRaw;
  const std::uint8_t* payload = raw;
  std::size_t payload_len = raw_len;

  const std::size_t c = lrz_compress(raw, raw_len, comp_.data(), comp_.size());
  if (c != 0 && c < raw_len) {
    codec = Codec::kLrz;
    payload = comp_.data();
    payload_len = c;
  }

  std::uint8_t hdr[kBlockHeaderBytes] = {};
  put_u32(hdr, static_cast<std::uint32_t>(raw_len));
  put_u32(hdr + 4, static_cast<std::uint32_t>(payload_len));
  put_u32(hdr + 8, s.nrecords);
  put_u32(hdr + 12, fnv1a32(payload, payload_len));
  hdr[16] = static_cast<std::uint8_t>(codec);
  if (std::fwrite(hdr, 1, sizeof(hdr), s.f) != sizeof(hdr) ||
      std::fwrite(payload, 1, payload_len, s.f) != payload_len) {
    throw std::runtime_error("trace capture: write failed");
  }
  s.raw_pos = 0;
  s.nrecords = 0;
  s.prev_addr = 0;
}

void CaptureLog::encode_access(NodeId p, Op op, std::uint32_t bytes,
                               std::uint64_t addr) {
  Stream& s = streams_[p];
  assert(std::has_single_bit(bytes) && bytes <= 128);
  const auto size_log2 =
      static_cast<std::uint8_t>(std::countr_zero(bytes));
  std::uint8_t rec[kMaxRecordBytes];
  rec[0] = static_cast<std::uint8_t>(op) |
           static_cast<std::uint8_t>(size_log2 << 3);
  const std::int64_t delta =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(s.prev_addr);
  s.prev_addr = addr;
  const std::size_t n = 1 + put_varint(rec + 1, zigzag(delta));
  append(s, rec, n);
}

void CaptureLog::encode_arg(NodeId p, Op op, std::uint64_t arg) {
  Stream& s = streams_[p];
  std::uint8_t rec[kMaxRecordBytes];
  rec[0] = static_cast<std::uint8_t>(op);
  const std::size_t n = 1 + put_varint(rec + 1, arg);
  append(s, rec, n);
}

void CaptureLog::on_access(NodeId p, bool write, Addr a, std::uint32_t bytes) {
  encode_access(p, write ? Op::kWrite : Op::kRead, bytes, a);
}

void CaptureLog::on_compute(NodeId p, Cycle n) {
  encode_arg(p, Op::kCompute, n);
}

void CaptureLog::on_sync(NodeId p, SyncOp op, SyncId s) {
  switch (op) {
    case SyncOp::kLock:
      encode_arg(p, Op::kLock, s);
      return;
    case SyncOp::kUnlock:
      encode_arg(p, Op::kUnlock, s);
      return;
    case SyncOp::kBarrier:
      encode_arg(p, Op::kBarrier, s);
      return;
    case SyncOp::kFence: {
      Stream& st = streams_[p];
      const std::uint8_t rec = static_cast<std::uint8_t>(Op::kFence);
      append(st, &rec, 1);
      return;
    }
  }
}

void CaptureLog::finish() {
  if (finished_) return;
  finished_ = true;
  for (Stream& s : streams_) {
    const std::uint8_t rec = static_cast<std::uint8_t>(Op::kEnd);
    append(s, &rec, 1);
    --records_;  // kEnd is stream framing, not a workload record
    flush_block(s);
    if (std::fclose(s.f) != 0) {
      throw std::runtime_error("trace capture: close failed");
    }
    s.f = nullptr;
  }
  const std::string path = dir_ + "/meta.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("trace capture: cannot open " + path);
  }
  std::fprintf(f, "lrctrace %u\nnprocs %zu\napp %s\nprotocol %s\nseed %llu\n",
               kVersion, streams_.size(), app_.c_str(), protocol_.c_str(),
               static_cast<unsigned long long>(seed_));
  if (std::fclose(f) != 0) {
    throw std::runtime_error("trace capture: close failed on " + path);
  }
}

}  // namespace lrc::trace
