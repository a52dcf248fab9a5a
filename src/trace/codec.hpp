// Block codec for the trace format: `lrz`, a small byte-oriented LZ77 with
// no dependencies — hash-4 greedy matching, two-byte offsets (the 64 KiB
// block bound makes longer ones useless). Blocks that do not shrink are
// stored raw.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lrc::trace {

/// FNV-1a 32-bit over `n` bytes (block checksum).
std::uint32_t fnv1a32(const std::uint8_t* p, std::size_t n);

/// Compresses [src, src+n) into dst (capacity `cap`). Returns the
/// compressed size, or 0 when the result would not fit in `cap` — callers
/// fall back to storing the block raw.
std::size_t lrz_compress(const std::uint8_t* src, std::size_t n,
                         std::uint8_t* dst, std::size_t cap);

/// Decompresses exactly `raw_len` bytes into dst. Returns false on any
/// malformed input (bad token, offset before the start, output mismatch);
/// never reads or writes out of bounds.
bool lrz_decompress(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
                    std::size_t raw_len);

}  // namespace lrc::trace
