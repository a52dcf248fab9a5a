// Capture -> replay equivalence (DESIGN.md §11).
//
// The trace front end's contract: replaying a captured run through the
// fiber-free ReplayCpu produces a bit-identical Report — same cycles, same
// messages, same stall histograms — because the trace preserves each
// processor's workload stream exactly and every protocol op is the same
// CpuOp coroutine the fiber front end drives.
//
//  * Replay runs on the same engine as the captured run: the FULL report
//    digest must match, for every litmus program, every protocol, several
//    seeds, and for fft at 64 nodes.
//  * Malformed traces (bad magic, flipped bits, truncation) fail with a
//    TraceError naming the file and block — never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "check/litmus.hpp"
#include "core/machine.hpp"
#include "core/report.hpp"
#include "report_digest.hpp"
#include "trace/codec.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"

namespace lrc {
namespace {

using check::LitmusOp;
using check::LitmusProgram;
using check::LitmusRunOptions;
using core::ProtocolKind;

constexpr ProtocolKind kAllFive[] = {ProtocolKind::kSC, ProtocolKind::kERC,
                                     ProtocolKind::kERCWT, ProtocolKind::kLRC,
                                     ProtocolKind::kLRCExt};

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& ent :
       std::filesystem::directory_iterator(LRCSIM_LITMUS_DIR)) {
    if (ent.path().extension() == ".litmus") files.push_back(ent.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "lrc_trace_" + leaf;
  std::filesystem::remove_all(dir);
  return dir;
}

// Runs the program and returns the post-run Report digest.
std::uint64_t litmus_digest(const LitmusProgram& prog, ProtocolKind kind,
                            LitmusRunOptions opts) {
  std::uint64_t d = 0;
  opts.post_run = [&](core::Machine& m) {
    d = testutil::report_digest(m.report());
  };
  run_litmus(prog, kind, opts);
  return d;
}

// ---- Whole-corpus round trips ----------------------------------------------

// Capture -> replay: full digest equality for every program,
// protocol, and seed.
TEST(TraceReplay, LitmusCorpusBitIdentical) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 12u) << "litmus corpus went missing";
  const std::string dir = scratch_dir("corpus");
  for (const auto& f : files) {
    const LitmusProgram prog = LitmusProgram::parse_file(f);
    for (auto kind : kAllFive) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const std::string cell = dir + "/" + prog.name + "_" +
                                 std::string(core::to_string(kind)) + "_" +
                                 std::to_string(seed);
        LitmusRunOptions cap;
        cap.seed = seed;
        cap.capture_dir = cell;
        const std::uint64_t fiber = litmus_digest(prog, kind, cap);

        LitmusRunOptions rep;
        rep.replay_dir = cell;
        const std::uint64_t replay = litmus_digest(prog, kind, rep);
        EXPECT_EQ(replay, fiber) << prog.name << " / "
                                 << core::to_string(kind) << " seed " << seed;

        // The capture directory self-describes the run it came from.
        const trace::TraceMeta meta = trace::read_meta(cell);
        EXPECT_EQ(meta.nprocs, prog.nprocs);
        EXPECT_EQ(meta.app, prog.name);
        EXPECT_EQ(meta.protocol, core::to_string(kind));
        EXPECT_EQ(meta.seed, seed);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// The fig4 workload at full machine width: fft on 64 processors.
TEST(TraceReplay, Fft64RoundTrip) {
  const std::string dir = scratch_dir("fft64");
  bench::Options opt;
  opt.scale = bench::Scale::kTest;
  opt.procs = 64;
  opt.apps = {"fft"};
  opt.validate = false;
  const auto* app = bench::selected_apps(opt).front();
  for (auto kind : {ProtocolKind::kSC, ProtocolKind::kLRC}) {
    auto cap = opt;
    cap.capture_dir = dir;
    const auto fiber = bench::run_app(*app, kind, cap);

    auto rep = opt;
    rep.replay_dir = dir;
    const auto replay = bench::run_app(*app, kind, rep);
    EXPECT_EQ(testutil::report_digest(replay.report),
              testutil::report_digest(fiber.report))
        << "fft / " << core::to_string(kind);
  }
  std::filesystem::remove_all(dir);
}

// ---- Malformed input --------------------------------------------------------

// Writes a single-stream file from raw pieces so each failure mode is
// exercised deterministically (captured files pick codecs data-dependently).
void write_file_header(std::FILE* f, std::uint32_t magic) {
  std::uint8_t hdr[trace::kFileHeaderBytes] = {};
  trace::put_u32(hdr, magic);
  trace::put_u16(hdr + 4, trace::kVersion);
  trace::put_u32(hdr + 8, 0);   // cpu
  trace::put_u32(hdr + 12, 1);  // nprocs
  std::fwrite(hdr, 1, sizeof(hdr), f);
}

// One raw-codec block holding `n` compute records (plus kEnd when asked).
std::vector<std::uint8_t> raw_block(unsigned n, bool with_end) {
  std::vector<std::uint8_t> raw;
  for (unsigned i = 0; i < n; ++i) {
    raw.push_back(static_cast<std::uint8_t>(trace::Op::kCompute));
    std::uint8_t var[10];
    const std::size_t len = trace::put_varint(var, 5 + i);
    raw.insert(raw.end(), var, var + len);
  }
  if (with_end) raw.push_back(static_cast<std::uint8_t>(trace::Op::kEnd));
  return raw;
}

void write_block(std::FILE* f, const std::vector<std::uint8_t>& raw,
                 std::uint32_t checksum, std::uint8_t codec) {
  std::uint8_t hdr[trace::kBlockHeaderBytes] = {};
  trace::put_u32(hdr, static_cast<std::uint32_t>(raw.size()));
  trace::put_u32(hdr + 4, static_cast<std::uint32_t>(raw.size()));
  trace::put_u32(hdr + 8, 0);  // nrecords (informational)
  trace::put_u32(hdr + 12, checksum);
  hdr[16] = codec;
  std::fwrite(hdr, 1, sizeof(hdr), f);
  std::fwrite(raw.data(), 1, raw.size(), f);
}

std::string make_stream(const std::string& leaf, std::uint32_t magic,
                        const std::vector<std::uint8_t>& raw,
                        std::uint32_t checksum, std::uint8_t codec,
                        std::size_t truncate_to = 0) {
  const std::string dir = scratch_dir(leaf);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + trace::stream_name(0);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  write_file_header(f, magic);
  write_block(f, raw, checksum, codec);
  std::fclose(f);
  if (truncate_to != 0) std::filesystem::resize_file(path, truncate_to);
  return path;
}

// Every failure asserts the "<file>:block <n>: <reason>" shape — the error
// must tell the user which block of which stream is bad.
void expect_trace_error(const std::string& path,
                        const std::string& reason_substr,
                        const std::function<void()>& body) {
  try {
    body();
    FAIL() << "expected TraceError (" << reason_substr << ")";
  } catch (const trace::TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":block "), std::string::npos) << what;
    EXPECT_NE(what.find(reason_substr), std::string::npos) << what;
  }
}

TEST(TraceCorrupt, BadMagic) {
  const auto raw = raw_block(3, true);
  const std::string path = make_stream(
      "magic", 0xDEADBEEFu, raw, trace::fnv1a32(raw.data(), raw.size()), 0);
  expect_trace_error(path, "bad magic", [&] { trace::Reader r(path); });
}

TEST(TraceCorrupt, ChecksumMismatch) {
  const auto raw = raw_block(3, true);
  const std::uint32_t good = trace::fnv1a32(raw.data(), raw.size());
  const std::string path =
      make_stream("checksum", trace::kMagic, raw, good ^ 1, 0);
  expect_trace_error(path, "checksum mismatch", [&] {
    trace::Reader r(path);
    trace::Record rec;
    while (r.next(rec)) {
    }
  });
}

// Codec id 2 once named an optional zstd codec; it is now as unknown as
// any other unassigned id.
TEST(TraceCorrupt, UnknownCodec) {
  const auto raw = raw_block(3, true);
  for (const std::uint8_t codec : {std::uint8_t{2}, std::uint8_t{0x7F}}) {
    const std::string path =
        make_stream("codec" + std::to_string(codec), trace::kMagic, raw,
                    trace::fnv1a32(raw.data(), raw.size()), codec);
    expect_trace_error(path, "unknown codec " + std::to_string(codec), [&] {
      trace::Reader r(path);
      trace::Record rec;
      while (r.next(rec)) {
      }
    });
  }
}

TEST(TraceCorrupt, TruncatedPayload) {
  const auto raw = raw_block(3, true);
  const std::string path =
      make_stream("trunc_payload", trace::kMagic, raw,
                  trace::fnv1a32(raw.data(), raw.size()), 0,
                  trace::kFileHeaderBytes + trace::kBlockHeaderBytes + 2);
  expect_trace_error(path, "truncated block payload", [&] {
    trace::Reader r(path);
    trace::Record rec;
    while (r.next(rec)) {
    }
  });
}

TEST(TraceCorrupt, TruncatedBlockHeader) {
  const auto raw = raw_block(3, true);
  const std::string path =
      make_stream("trunc_hdr", trace::kMagic, raw,
                  trace::fnv1a32(raw.data(), raw.size()), 0,
                  trace::kFileHeaderBytes + 7);
  expect_trace_error(path, "truncated block header", [&] {
    trace::Reader r(path);
    trace::Record rec;
    while (r.next(rec)) {
    }
  });
}

TEST(TraceCorrupt, MissingEndRecord) {
  // A well-formed block that simply never says kEnd: EOF at the block
  // boundary must be reported, not treated as a clean end of stream.
  const auto raw = raw_block(3, false);
  const std::string path = make_stream(
      "no_end", trace::kMagic, raw, trace::fnv1a32(raw.data(), raw.size()), 0);
  expect_trace_error(path, "missing end record", [&] {
    trace::Reader r(path);
    trace::Record rec;
    while (r.next(rec)) {
    }
  });
}

// A corrupt stream surfaced through the replay front end (not just the raw
// Reader) also fails with the located error, with the Machine cleanly
// destroyed.
TEST(TraceCorrupt, ReplayRejectsCorruptTrace) {
  const std::string dir = scratch_dir("replay_corrupt");
  const LitmusProgram prog = LitmusProgram::parse_file(
      std::string(LRCSIM_LITMUS_DIR) + "/mp_barrier.litmus");
  LitmusRunOptions cap;
  cap.seed = 1;
  cap.capture_dir = dir;
  run_litmus(prog, ProtocolKind::kLRC, cap);

  // Flip one payload byte in proc 0's stream; whichever codec the block
  // chose, decode or checksum verification must catch it.
  const std::string path = dir + "/" + trace::stream_name(0);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0x55, f);
    std::fclose(f);
  }
  LitmusRunOptions rep;
  rep.replay_dir = dir;
  try {
    run_litmus(prog, ProtocolKind::kLRC, rep);
    FAIL() << "expected TraceError from corrupted stream";
  } catch (const trace::TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":block "), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

// Replaying on the wrong machine width is rejected up front by the factory.
TEST(TraceCorrupt, NprocsMismatchRejected) {
  const std::string dir = scratch_dir("nprocs");
  const LitmusProgram prog = LitmusProgram::parse_file(
      std::string(LRCSIM_LITMUS_DIR) + "/mp_barrier.litmus");
  LitmusRunOptions cap;
  cap.capture_dir = dir;
  run_litmus(prog, ProtocolKind::kSC, cap);

  bench::Options opt;  // 64-proc machine vs the 2-proc capture
  opt.scale = bench::Scale::kTest;
  opt.procs = 64;
  opt.apps = {"fft"};
  opt.validate = false;
  opt.replay_dir = dir;
  // run_app appends "<app>_<protocol>"; point a matching layout at it.
  const std::string cell = dir + "/fft_SC";
  std::filesystem::create_directories(cell);
  std::filesystem::copy(dir + "/meta.txt", cell + "/meta.txt");
  std::filesystem::copy(dir + "/" + trace::stream_name(0),
                        cell + "/" + trace::stream_name(0));
  const auto* app = bench::selected_apps(opt).front();
  EXPECT_THROW(bench::run_app(*app, ProtocolKind::kSC, opt),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lrc
