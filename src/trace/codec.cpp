#include "trace/codec.hpp"

#include <algorithm>
#include <cstring>

namespace lrc::trace {

std::uint32_t fnv1a32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 16777619u;
  }
  return h;
}

// ---- lrz ------------------------------------------------------------------
//
// Token stream:
//   0x01..0x7F       : literal run; the token value L is followed by L
//                      literal bytes
//   0x80 | (len - 4) : match of length 4..131, followed by a 2-byte LE
//                      offset in 1..65535 (distance back into the output)
// Token 0x00 is invalid; decode rejects it.

namespace {

inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxMatch = 131;  // 4 + 127
inline constexpr std::size_t kMaxOffset = 65535;
inline constexpr unsigned kHashBits = 13;

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Flushes literals [from, to) into dst; returns new dst position or npos on
// overflow.
inline std::size_t flush_literals(const std::uint8_t* src, std::size_t from,
                                  std::size_t to, std::uint8_t* dst,
                                  std::size_t pos, std::size_t cap) {
  while (from < to) {
    const std::size_t run = std::min<std::size_t>(to - from, 0x7F);
    if (pos + 1 + run > cap) return static_cast<std::size_t>(-1);
    dst[pos++] = static_cast<std::uint8_t>(run);
    std::memcpy(dst + pos, src + from, run);
    pos += run;
    from += run;
  }
  return pos;
}

}  // namespace

std::size_t lrz_compress(const std::uint8_t* src, std::size_t n,
                         std::uint8_t* dst, std::size_t cap) {
  // head[h] holds position + 1 (0 = empty); positions fit u32 for any block.
  std::uint32_t head[1u << kHashBits] = {};
  std::size_t pos = 0;       // write position in dst
  std::size_t lit_start = 0; // first unemitted literal
  std::size_t i = 0;

  while (i + kMinMatch <= n) {
    const std::uint32_t v = read32(src + i);
    const std::uint32_t h = hash4(v);
    const std::uint32_t cand1 = head[h];
    head[h] = static_cast<std::uint32_t>(i) + 1;
    if (cand1 != 0) {
      const std::size_t cand = cand1 - 1;
      const std::size_t off = i - cand;
      if (off >= 1 && off <= kMaxOffset && read32(src + cand) == v) {
        std::size_t len = kMinMatch;
        const std::size_t max_len = std::min(kMaxMatch, n - i);
        while (len < max_len && src[cand + len] == src[i + len]) ++len;
        pos = flush_literals(src, lit_start, i, dst, pos, cap);
        if (pos == static_cast<std::size_t>(-1) || pos + 3 > cap) return 0;
        dst[pos++] = static_cast<std::uint8_t>(0x80 | (len - kMinMatch));
        dst[pos++] = static_cast<std::uint8_t>(off);
        dst[pos++] = static_cast<std::uint8_t>(off >> 8);
        // Seed the table across the match so later data can reference it.
        const std::size_t stop = std::min(i + len, n - kMinMatch + 1);
        for (std::size_t j = i + 1; j < stop; ++j) {
          head[hash4(read32(src + j))] = static_cast<std::uint32_t>(j) + 1;
        }
        i += len;
        lit_start = i;
        continue;
      }
    }
    ++i;
  }
  pos = flush_literals(src, lit_start, n, dst, pos, cap);
  if (pos == static_cast<std::size_t>(-1)) return 0;
  return pos;
}

bool lrz_decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
                    std::size_t raw_len) {
  std::size_t ip = 0;
  std::size_t op = 0;
  while (ip < n) {
    const std::uint8_t tok = src[ip++];
    if (tok == 0) return false;
    if (tok < 0x80) {
      const std::size_t run = tok;
      if (ip + run > n || op + run > raw_len) return false;
      std::memcpy(dst + op, src + ip, run);
      ip += run;
      op += run;
    } else {
      const std::size_t len = (tok & 0x7F) + kMinMatch;
      if (ip + 2 > n) return false;
      const std::size_t off = src[ip] | (src[ip + 1] << 8);
      ip += 2;
      if (off == 0 || off > op || op + len > raw_len) return false;
      // Byte-by-byte: matches may overlap their own output (off < len).
      for (std::size_t j = 0; j < len; ++j) {
        dst[op + j] = dst[op + j - off];
      }
      op += len;
    }
  }
  return op == raw_len;
}

}  // namespace lrc::trace
