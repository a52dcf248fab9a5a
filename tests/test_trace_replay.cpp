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
//    seeds, for fft at 64 nodes, and under two-level cache stacks, where
//    L1 hits (the front ends' l1_hit path) and L2 hits (protocol ops)
//    interleave.
//  * Malformed traces (bad magic, flipped bits, truncation) fail with a
//    TraceError naming the file and block — never UB. Records at a block's
//    edge decode the same whichever Reader::next path takes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "bench/harness.hpp"
#include "cache/config.hpp"
#include "check/litmus.hpp"
#include "core/machine.hpp"
#include "core/report.hpp"
#include "report_digest.hpp"
#include "trace/codec.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/replay_cpu.hpp"
#include "trace/writer.hpp"

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

// Plain fiber, capture and replay of gauss on 8 processors with a 4 KiB L1
// over a 16 KiB private L2: the working set spills out of L1 but mostly
// fits in L2, so L1 hits and L2 hits interleave throughout.
core::Report run_gauss_hier(ProtocolKind kind, const cache::CacheConfig& cfg,
                            const std::string& capture_dir,
                            const std::string& replay_dir) {
  auto params = core::SystemParams::paper_default(8);
  params.cache_bytes = 4096;
  params.cache = cfg;
  if (!replay_dir.empty()) {
    core::Machine m(params, kind, trace::ReplayCpu::factory(replay_dir));
    m.run(nullptr);
    return m.report();
  }
  const apps::AppInfo& app = *apps::find_app("gauss");
  core::Machine m(params, kind);
  std::unique_ptr<trace::CaptureLog> capture;
  if (!capture_dir.empty()) {
    capture = std::make_unique<trace::CaptureLog>(capture_dir, m.nprocs());
    capture->set_meta("gauss", std::string(core::to_string(kind)), 1);
    m.set_access_log(capture.get());
  }
  apps::AppConfig ac;
  ac.n = app.test_n;
  ac.steps = app.test_steps;
  EXPECT_TRUE(app.run(m, ac).valid) << core::to_string(kind);
  if (capture) capture->finish();
  return m.report();
}

// The full digest plus the counters it leaves out: per-level movement and
// the shared LLC.
std::uint64_t hier_digest(const core::Report& r) {
  testutil::Digest d;
  d.mix(testutil::report_digest(r));
  for (const cache::LevelStats& lv : r.cache_levels) {
    for (auto v : {lv.hits, lv.fills, lv.evictions, lv.invalidations,
                   lv.promotions, lv.demotions, lv.back_invals}) {
      d.mix(v);
    }
  }
  for (auto v : {r.llc.hits, r.llc.misses, r.llc.read_fills,
                 r.llc.writeback_fills, r.llc.evictions,
                 r.llc.remote_accesses}) {
    d.mix(v);
  }
  return d.value();
}

TEST(TraceReplay, TwoLevelStacksBitIdentical) {
  const std::string dir = scratch_dir("hier");
  const std::pair<const char*, cache::CacheConfig> presets[] = {
      {"l2-inclusive", cache::CacheConfig::with_l2(
                           16 * 1024, 4, cache::InclusionPolicy::kInclusive)},
      {"l2-exclusive+llc",
       cache::CacheConfig::with_l2(16 * 1024, 4,
                                   cache::InclusionPolicy::kExclusive)
           .add_llc(16 * 1024, 4)},
  };
  for (const auto& [name, cfg] : presets) {
    for (auto kind : kAllFive) {
      const std::string cell =
          dir + "/" + name + "_" + std::string(core::to_string(kind));
      const core::Report fiber = run_gauss_hier(kind, cfg, "", "");
      const core::Report captured = run_gauss_hier(kind, cfg, cell, "");
      const core::Report replayed = run_gauss_hier(kind, cfg, "", cell);
      ASSERT_EQ(fiber.cache_levels.size(), 2u);
      EXPECT_GT(fiber.cache_levels[0].hits, 0u) << name;
      EXPECT_GT(fiber.cache_levels[1].hits, 0u) << name;
      EXPECT_EQ(hier_digest(captured), hier_digest(fiber))
          << name << " / " << core::to_string(kind) << ": capture";
      EXPECT_EQ(hier_digest(replayed), hier_digest(fiber))
          << name << " / " << core::to_string(kind) << ": replay";
    }
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

// ---- Records at block edges -------------------------------------------------

// Encodes read/write records into one raw block as the writer does: the
// address delta from the previous access, base 0 at the block start.
std::vector<std::uint8_t> access_block(const std::vector<trace::Record>& recs) {
  std::vector<std::uint8_t> raw;
  std::uint64_t prev = 0;
  for (const trace::Record& r : recs) {
    raw.push_back(static_cast<std::uint8_t>(
        static_cast<unsigned>(r.op) |
        (static_cast<unsigned>(std::countr_zero(r.bytes)) << 3)));
    std::uint8_t var[10];
    const std::size_t n = trace::put_varint(
        var, trace::zigzag(static_cast<std::int64_t>(r.addr - prev)));
    raw.insert(raw.end(), var, var + n);
    prev = r.addr;
  }
  return raw;
}

// A stream of well-formed raw-codec blocks.
std::string make_blocks(const std::string& leaf,
                        const std::vector<std::vector<std::uint8_t>>& blocks) {
  const std::string dir = scratch_dir(leaf);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + trace::stream_name(0);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  write_file_header(f, trace::kMagic);
  for (const auto& raw : blocks) {
    write_block(f, raw, trace::fnv1a32(raw.data(), raw.size()), 0);
  }
  std::fclose(f);
  return path;
}

std::vector<std::uint8_t> concat(std::vector<std::uint8_t> a,
                                 const std::vector<std::uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

bool same_access(const trace::Record& a, const trace::Record& b) {
  return a.op == b.op && a.bytes == b.bytes && a.addr == b.addr;
}

// Reader::next decodes a read/write inline only while the longest record
// still fits in the block; these records sit exactly on that line and
// past it, and must decode the same either way.
TEST(TraceReader, AccessRecordsAtBlockEdges) {
  using trace::Op;
  using trace::Record;
  // Block 0 ends with an 11-byte record (a 10-byte varint: delta 2^62)
  // that starts exactly kMaxRecordBytes before the block end.
  const std::vector<Record> b0 = {
      {Op::kRead, 8, 0x1000, 0},
      {Op::kWrite, 4, 0x1008, 0},
      {Op::kRead, 8, 0x1008 + (1ull << 62), 0},
  };
  // Block 1 (delta base back to 0) is 2-byte records whose last five start
  // within the final 11 bytes; the last one ends exactly at the block end.
  std::vector<Record> b1;
  for (unsigned i = 0; i < 12; ++i) {
    b1.push_back({i % 3 == 0 ? Op::kWrite : Op::kRead, 1u << (i % 4),
                  0x30 + 8 * i, 0});
  }
  const auto raw0 = access_block(b0);
  const auto raw1 = access_block(b1);
  ASSERT_EQ(raw0.size(), 3 + 2 + trace::kMaxRecordBytes);
  ASSERT_EQ(raw1.size(), 2 * b1.size());
  const std::string path =
      make_blocks("edges", {raw0, raw1, {std::uint8_t(Op::kEnd)}});

  trace::Reader rd(path);
  std::vector<Record> want = b0;
  want.insert(want.end(), b1.begin(), b1.end());
  Record r;
  for (const Record& w : want) {
    ASSERT_TRUE(rd.next(r));
    EXPECT_TRUE(same_access(r, w))
        << "got op " << int(r.op) << " bytes " << r.bytes << " addr "
        << r.addr << ", want addr " << w.addr;
  }
  EXPECT_FALSE(rd.next(r));
  EXPECT_FALSE(rd.next(r));
}

// A read whose varint never terminates fails with the same located error
// whether it is cut off by the block end or overlong inside the block.
TEST(TraceReader, UnterminatedVarintIsTruncatedRecord) {
  const std::uint8_t read = std::uint8_t(trace::Op::kRead) | (3u << 3);
  const std::vector<std::uint8_t> cut = {read, 0x80, 0x80};
  std::vector<std::uint8_t> overlong = {read};
  overlong.insert(overlong.end(), 10, 0x80);
  overlong.insert(overlong.end(), {0x00, std::uint8_t(trace::Op::kEnd)});
  const std::pair<const char*, std::vector<std::uint8_t>> cases[] = {
      {"varint_cut", concat(raw_block(3, false), cut)},
      {"varint_overlong", concat(raw_block(3, false), overlong)},
  };
  for (const auto& [leaf, raw] : cases) {
    const std::string path = make_blocks(leaf, {raw});
    trace::Reader rd(path);
    trace::Record r;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(rd.next(r)) << leaf;
    try {
      rd.next(r);
      ADD_FAILURE() << leaf << ": expected TraceError";
    } catch (const trace::TraceError& e) {
      EXPECT_EQ(std::string(e.what()), path + ":block 0: truncated record");
    }
  }
}

// Whatever follows kEnd — here well-formed read records, enough of them for
// the inline path — is never decoded.
TEST(TraceReader, BytesAfterEndIgnored) {
  const std::vector<trace::Record> reads(8, {trace::Op::kRead, 8, 0x80, 0});
  const auto raw = concat(
      concat(access_block({reads[0]}), {std::uint8_t(trace::Op::kEnd)}),
      access_block(reads));
  const std::string path = make_blocks("after_end", {raw});
  trace::Reader rd(path);
  trace::Record r;
  ASSERT_TRUE(rd.next(r));
  EXPECT_TRUE(same_access(r, reads[0]));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(rd.next(r));
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
