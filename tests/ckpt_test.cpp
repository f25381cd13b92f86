// Tests for the checkpoint subsystem: envelope validation (every corruption
// mode maps to one typed error), tensor/KV codec bit-exactness, and the
// headline robustness contract — a generation killed mid-decode and resumed
// from its snapshot produces byte-identical tokens, for full, quantized,
// small-block and windowed KV caches, even with a transient-fault chaos
// schedule active across the kill.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "lmo/chaos/drill.hpp"
#include "lmo/ckpt/binary_io.hpp"
#include "lmo/ckpt/format.hpp"
#include "lmo/ckpt/tensor_codec.hpp"
#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"
#include "lmo/util/tempdir.hpp"

namespace lmo {
namespace {

using util::CheckError;
using util::CheckpointCorrupt;
using util::CheckpointMismatch;
using util::CheckpointTruncated;
using util::CheckpointVersionMismatch;

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A named file inside its own util::TempDir: unique per test even when
/// suites run in parallel, and removed with the directory no matter how the
/// test exits.
struct TempFile {
  explicit TempFile(const std::string& name)
      : dir("ckpt_test"), path(dir.file(name)) {}
  util::TempDir dir;
  std::string path;
};

// ---------------------------------------------------------- binary io --

TEST(CkptBinaryIo, PrimitivesRoundTrip) {
  ckpt::ByteWriter writer;
  writer.u8(7);
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.i64(-42);
  writer.f32(1.5f);
  writer.f64(-2.25);
  writer.string("checkpoint");
  writer.f32_array(std::vector<float>{1.0f, -0.5f, 3.25f});

  ckpt::ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f32(), 1.5f);
  EXPECT_EQ(reader.f64(), -2.25);
  EXPECT_EQ(reader.string(), "checkpoint");
  EXPECT_EQ(reader.f32_array(), (std::vector<float>{1.0f, -0.5f, 3.25f}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(CkptBinaryIo, ReadPastEndIsTruncated) {
  ckpt::ByteWriter writer;
  writer.u32(1);
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u32(), 1u);
  EXPECT_THROW(reader.u8(), CheckpointTruncated);
  // A length prefix larger than the remaining bytes is truncation too.
  ckpt::ByteWriter lying;
  lying.u64(1000);  // claims a 1000-byte string follows
  ckpt::ByteReader reader2(lying.buffer());
  EXPECT_THROW(reader2.string(), CheckpointTruncated);
}

// ----------------------------------------------------------- envelope --

TEST(CkptEnvelope, RoundTripsPayload) {
  TempFile file("ckpt_test_envelope.bin");
  std::vector<std::byte> payload;
  for (int i = 0; i < 100; ++i) payload.push_back(std::byte(i));
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              payload);
  const auto loaded = ckpt::read_checkpoint_file(
      file.path, ckpt::PayloadKind::kGeneratorState);
  EXPECT_EQ(loaded, payload);
}

TEST(CkptEnvelope, MissingFileIsTruncated) {
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   "/nonexistent/ckpt_test.bin",
                   ckpt::PayloadKind::kGeneratorState),
               CheckpointTruncated);
}

TEST(CkptEnvelope, TruncationAtEveryBoundaryIsTyped) {
  TempFile file("ckpt_test_truncated.bin");
  std::vector<std::byte> payload(64, std::byte{0x5a});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              payload);
  const auto bytes = read_file(file.path);
  // Cut inside the header, inside the payload, and inside the CRC trailer:
  // all must surface as CheckpointTruncated, never as UB or a short read.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{24}, std::size_t{50},
        bytes.size() - 2}) {
    write_file(file.path,
               std::vector<char>(bytes.begin(),
                                 bytes.begin() + static_cast<long>(keep)));
    EXPECT_THROW(ckpt::read_checkpoint_file(
                     file.path, ckpt::PayloadKind::kGeneratorState),
                 CheckpointTruncated)
        << "keep=" << keep;
  }
}

TEST(CkptEnvelope, BadMagicIsCorrupt) {
  TempFile file("ckpt_test_magic.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(16, std::byte{1}));
  auto bytes = read_file(file.path);
  bytes[0] ^= 0x7f;
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointCorrupt);
}

TEST(CkptEnvelope, PayloadBitFlipIsCorrupt) {
  TempFile file("ckpt_test_crc.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(32, std::byte{0xaa}));
  auto bytes = read_file(file.path);
  bytes[30] ^= 0x01;  // one bit inside the payload
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointCorrupt);
}

TEST(CkptEnvelope, VersionSkewIsTyped) {
  TempFile file("ckpt_test_version.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(8, std::byte{2}));
  auto bytes = read_file(file.path);
  bytes[8] = static_cast<char>(ckpt::kFormatVersion + 1);  // version field
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointVersionMismatch);
}

TEST(CkptEnvelope, WrongPayloadKindIsMismatch) {
  TempFile file("ckpt_test_kind.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(8, std::byte{3}));
  auto bytes = read_file(file.path);
  bytes[12] = 99;  // payload-kind field
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointMismatch);
}

TEST(CkptEnvelope, TornTmpFileNeverShadowsPublishedCheckpoint) {
  // Atomic publish: writes land in <path>.tmp and only a completed rename
  // makes them visible. A crash mid-write leaves a torn tmp file behind —
  // the previously published checkpoint must still restore bit-exactly.
  TempFile file("ckpt_test_atomic.bin");
  std::vector<std::byte> published(48, std::byte{0x11});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              published);
  // The next writer died mid-tmp: plant a truncated garbage tmp file.
  write_file(file.path + ".tmp", std::vector<char>{'t', 'o', 'r', 'n'});
  const auto loaded = ckpt::read_checkpoint_file(
      file.path, ckpt::PayloadKind::kGeneratorState);
  EXPECT_EQ(loaded, published);
}

TEST(CkptEnvelope, CrashPointsStraddleThePublishRename) {
  // ckpt.publish is checked twice: before the tmp write and after fsync,
  // immediately before the rename. A crash at either point must leave the
  // previous checkpoint restorable (the first leaves no tmp bytes at all,
  // the second a complete-but-unpublished tmp).
  struct Fired : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  TempFile file("ckpt_test_publish.bin");
  const std::vector<std::byte> old_payload(32, std::byte{0x22});
  const std::vector<std::byte> new_payload(32, std::byte{0x33});
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              old_payload);
  for (const std::int64_t at : {0, 1}) {
    util::ScopedFaultInjection chaos(7);
    util::FaultSpec spec;
    spec.crash_at_op = at;
    chaos.arm(ckpt::kPublishSite, spec);
    chaos.set_crash_handler(
        [](const std::string& site) { throw Fired(site); });
    EXPECT_THROW(ckpt::write_checkpoint_file(
                     file.path, ckpt::PayloadKind::kGeneratorState,
                     new_payload),
                 Fired)
        << "publish crash point " << at << " never fired";
    EXPECT_EQ(ckpt::read_checkpoint_file(file.path,
                                         ckpt::PayloadKind::kGeneratorState),
              old_payload)
        << "crash at publish check " << at
        << " corrupted the published checkpoint";
  }
  // With no crash armed the publish completes and the new payload wins.
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              new_payload);
  EXPECT_EQ(ckpt::read_checkpoint_file(file.path,
                                       ckpt::PayloadKind::kGeneratorState),
            new_payload);
}

// -------------------------------------------------------- tensor codec --

TEST(CkptTensorCodec, DenseTensorRoundTripsBitExactly) {
  util::Xoshiro256 rng(7);
  const auto original = tensor::Tensor::uniform({3, 5}, rng);
  ckpt::ByteWriter writer;
  ckpt::encode_tensor(writer, original);
  ckpt::ByteReader reader(writer.buffer());
  const auto restored = ckpt::decode_tensor(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.shape(), original.shape());
  EXPECT_EQ(restored.max_abs_diff(original), 0.0f);
}

TEST(CkptTensorCodec, QuantizedTensorRoundTripsBitExactly) {
  util::Xoshiro256 rng(8);
  for (const int bits : {4, 8}) {
    const auto source = tensor::Tensor::uniform({4, 32}, rng);
    const auto original =
        tensor::quantize(source, tensor::QuantConfig{bits, 16});
    ckpt::ByteWriter writer;
    ckpt::encode_quantized(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    const auto restored = ckpt::decode_quantized(reader);
    EXPECT_TRUE(reader.exhausted());
    // Bit-exact payload adoption: dequantizing both gives identical floats
    // (a re-quantization round trip would drift).
    EXPECT_EQ(tensor::dequantize(restored).max_abs_diff(
                  tensor::dequantize(original)),
              0.0f)
        << bits << "-bit";
  }
}

TEST(CkptTensorCodec, GarbageShapeIsCorrupt) {
  ckpt::ByteWriter writer;
  writer.u8(200);  // rank far beyond kMaxRank
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_THROW(ckpt::decode_shape(reader), CheckpointCorrupt);

  ckpt::ByteWriter negative;
  negative.u8(1);
  negative.i64(-4);  // negative extent
  ckpt::ByteReader reader2(negative.buffer());
  EXPECT_THROW(ckpt::decode_shape(reader2), CheckpointCorrupt);
}

// ------------------------------------------------------------ kv codec --

void expect_same_contents(const runtime::KVCache& restored,
                          const runtime::KVCache& original) {
  ASSERT_EQ(restored.length(), original.length());
  EXPECT_EQ(restored.first_row(), original.first_row());
  EXPECT_EQ(restored.stored_bytes(), original.stored_bytes());
  if (original.length() == 0) return;
  EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
  EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
}

TEST(CkptKVCodec, RoundTripsPlainAndQuantizedRows) {
  util::Xoshiro256 rng(11);
  for (const int bits : {16, 8, 4}) {
    runtime::MemoryPool pool("h", 1 << 20);
    runtime::KVCache cache(32, bits, 16, pool);
    for (int i = 0; i < 5; ++i) {
      cache.append(tensor::Tensor::uniform({32}, rng),
                   tensor::Tensor::uniform({32}, rng));
    }
    ckpt::ByteWriter writer;
    runtime::encode_kv_cache(writer, cache);
    ckpt::ByteReader reader(writer.buffer());
    runtime::KVCache restored(32, bits, 16, pool);
    runtime::decode_kv_cache(reader, restored);
    EXPECT_TRUE(reader.exhausted());
    expect_same_contents(restored, cache);
    // Quantized codes are adopted verbatim, never re-quantized.
    if (bits != 16) {
      EXPECT_EQ(restored.row(true, 3).quantized->payload(),
                cache.row(true, 3).quantized->payload());
    }
  }
}

TEST(CkptKVCodec, EmptyCacheRoundTrips) {
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVCache cache(16, 16, 16, pool);
  ckpt::ByteWriter writer;
  runtime::encode_kv_cache(writer, cache);
  ckpt::ByteReader reader(writer.buffer());
  runtime::KVCache restored(16, 16, 16, pool);
  runtime::decode_kv_cache(reader, restored);
  EXPECT_EQ(restored.length(), 0);
  EXPECT_TRUE(reader.exhausted());
}

// ------------------------------------------------ hostile length fields --
// Every size or count a decoder reads from disk is validated before it is
// used or allocated: a hostile value surfaces as CheckpointCorrupt, never as
// CheckError, std::length_error or std::bad_alloc.

/// A v4 KV cache header: geometry, first row and row count.
std::vector<std::byte> kv_header(std::int64_t hidden, int bits,
                                 std::int64_t group, std::int64_t first,
                                 std::uint64_t rows) {
  ckpt::ByteWriter writer;
  writer.i64(hidden);
  writer.u8(static_cast<std::uint8_t>(bits));
  writer.i64(group);
  writer.i64(first);
  writer.u64(rows);
  return writer.take();
}

void expect_kv_corrupt(const std::vector<std::byte>& bytes) {
  runtime::MemoryPool pool("h", 1 << 20);
  runtime::KVCache cache(16, 16, 16, pool);
  ckpt::ByteReader reader(bytes);
  EXPECT_THROW(runtime::decode_kv_cache(reader, cache), CheckpointCorrupt);
  EXPECT_EQ(cache.length(), 0);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(CkptHostileLengths, KvHiddenZeroIsCorrupt) {
  expect_kv_corrupt(kv_header(0, 16, 16, 0, 0));
}

TEST(CkptHostileLengths, KvRowCountBeyondPayloadIsCorrupt) {
  expect_kv_corrupt(kv_header(16, 16, 16, 0, std::uint64_t{1} << 60));
}

TEST(CkptHostileLengths, KvGroupZeroIsCorrupt) {
  expect_kv_corrupt(kv_header(16, 16, 0, 0, 0));
}

TEST(CkptKVCodec, FieldsThatDisagreeWithTheCacheAreCorrupt) {
  std::vector<std::byte> short_row = kv_header(16, 16, 16, 0, 1);
  ckpt::ByteWriter rows;
  rows.f32_array(std::vector<float>(15, 0.0f));  // K row one value short
  rows.f32_array(std::vector<float>(16, 0.0f));
  const auto tail = rows.take();
  short_row.insert(short_row.end(), tail.begin(), tail.end());
  for (const auto& bytes : {
           kv_header(16, 5, 16, 0, 0),               // bits out of range
           kv_header(16, 16, 16, -3, 0),             // negative first row
           kv_header(16, 16, 16, INT64_MAX - 1, 0),  // position overflow
           kv_header(16, 16, 16, 5, 0),  // unwindowed cache past row 0
           short_row,
       }) {
    expect_kv_corrupt(bytes);
  }
}

TEST(CkptBinaryIo, F32ArrayCountThatWrapsIsTruncated) {
  ckpt::ByteWriter writer;
  writer.u64(std::uint64_t{1} << 62);  // × 4 bytes wraps to 0
  ckpt::ByteReader reader(writer.buffer());
  EXPECT_THROW(reader.f32_array(), CheckpointTruncated);
}

runtime::RuntimeConfig hostile_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.prefetch_threads = 0;
  return config;
}

/// Resume a hand-built generator payload; the first fields are the config
/// fingerprint and a one-sequence session header.
void expect_resume_corrupt(
    const std::function<void(ckpt::ByteWriter&)>& session_body) {
  const auto config = hostile_config();
  ckpt::ByteWriter writer;
  runtime::encode_runtime_config(writer, config);
  writer.u64(1);    // sequences
  writer.i64(4);    // gen_len
  writer.i64(1);    // produced
  writer.f64(0.0);  // prefill seconds
  writer.f64(0.0);  // decode seconds
  session_body(writer);
  TempFile file("ckpt_test_hostile.ckpt");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              writer.take());
  runtime::Generator gen(config);
  EXPECT_THROW(gen.resume(file.path), CheckpointCorrupt);
  EXPECT_FALSE(gen.active());
}

TEST(CkptHostileLengths, TokenCountBeyondPayloadIsCorrupt) {
  expect_resume_corrupt([](ckpt::ByteWriter& writer) {
    writer.u64(std::uint64_t{1} << 61);  // prompt length
  });
}

TEST(CkptHostileLengths, FaultStateCountBeyondPayloadIsCorrupt) {
  expect_resume_corrupt([](ckpt::ByteWriter& writer) {
    writer.u64(1);  // prompt
    writer.i64(7);
    writer.u64(1);  // tokens produced so far
    writer.i64(9);
    writer.i64(9);  // next
    for (int word = 0; word < 4; ++word) writer.u64(1);  // RNG state
    writer.u64(std::uint64_t{1} << 61);  // fault-site states
  });
}

TEST(CkptHostileLengths, KvRowsThatDisagreeWithTheTokenHistoryAreCorrupt) {
  // A one-token prompt with one produced token has appended one row per
  // layer; caches claiming none are inconsistent, however well-formed.
  expect_resume_corrupt([](ckpt::ByteWriter& writer) {
    writer.u64(1);  // prompt
    writer.i64(7);
    writer.u64(1);  // tokens produced so far
    writer.i64(9);
    writer.i64(9);  // next
    for (int word = 0; word < 4; ++word) writer.u64(1);  // RNG state
    writer.u64(0);  // fault-site states
    const auto config = hostile_config();
    for (std::int64_t layer = 0; layer < config.spec.num_layers; ++layer) {
      const auto header = kv_header(config.spec.hidden, config.kv_bits,
                                    config.quant_group, 0, 0);
      for (const std::byte b : header) writer.u8(static_cast<std::uint8_t>(b));
    }
  });
}

TEST(CkptEnvelope, FormatV3IsRejectedAsVersionMismatch) {
  // v3 carried the per-backend KV codecs; v4 has one codec and no v3
  // reader, so an old file fails on its header, before any decoding.
  static_assert(ckpt::kFormatVersion == 4);
  TempFile file("ckpt_test_v3.bin");
  ckpt::write_checkpoint_file(file.path, ckpt::PayloadKind::kGeneratorState,
                              std::vector<std::byte>(8, std::byte{1}));
  auto bytes = read_file(file.path);
  bytes[8] = 3;  // version field, little-endian
  write_file(file.path, bytes);
  EXPECT_THROW(ckpt::read_checkpoint_file(
                   file.path, ckpt::PayloadKind::kGeneratorState),
               CheckpointVersionMismatch);
  runtime::Generator gen(hostile_config());
  EXPECT_THROW(gen.resume(file.path), CheckpointVersionMismatch);
}

// --------------------------------------------- generator kill-resume --

runtime::RuntimeConfig tiny_config(std::int64_t window_tokens = 0) {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = 8;
  config.quant_group = 32;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-6;
  config.window_tokens = window_tokens;
  // Temperature sampling so the checkpointed RNG state is load-bearing:
  // a restore that failed to reproduce the xoshiro words would diverge.
  config.sampling.temperature = 0.9;
  config.sampling.top_k = 8;
  return config;
}

const std::vector<std::vector<std::int64_t>> kPrompts = {{1, 2, 3, 4},
                                                         {9, 8, 7}};
constexpr std::int64_t kGenLen = 10;

/// The kill-resume chaos drill on `config`: an uninterrupted run under
/// transient transfer faults vs a run killed at kGenLen / 2 and resumed by a
/// fresh Generator and a fresh injector. Both must produce the same tokens.
void expect_kill_resume_deterministic(const runtime::RuntimeConfig& config) {
  chaos::Drill drill = *chaos::find("kill-resume");
  drill.config.runtime = config;
  drill.config.prompts = kPrompts;
  drill.config.gen_len = kGenLen;
  std::ostringstream out;
  EXPECT_EQ(chaos::run(drill, out), 0) << out.str();
}

TEST(GeneratorCkpt, KillResumeIsDeterministicDense) {
  expect_kill_resume_deterministic(tiny_config());
}

TEST(GeneratorCkpt, KillResumeIsDeterministicDenseQuantizedKV) {
  auto config = tiny_config();
  config.kv_bits = 4;
  expect_kill_resume_deterministic(config);
}

TEST(GeneratorCkpt, KillResumeIsDeterministicSmallBlocks) {
  auto config = tiny_config();
  config.kv_block_tokens = 2;  // the cut lands mid-table, many blocks deep
  expect_kill_resume_deterministic(config);
}

TEST(GeneratorCkpt, KillResumeIsDeterministicWindow) {
  // Small enough that gen_len slides rows out of the window.
  expect_kill_resume_deterministic(tiny_config(/*window_tokens=*/6));
}

TEST(GeneratorCkpt, SnapshotQuiescesActivePrefetchWorkers) {
  // With async prefetch on, snapshot() must drain in-flight transfers
  // (OffloadManager::quiesce) before serializing — this is the
  // ThreadSanitizer target path. The resumed run must still match an
  // uninterrupted one.
  auto config = tiny_config();
  config.prefetch_threads = 2;
  runtime::Generator reference(config);
  const auto expected = reference.generate(kPrompts, kGenLen).tokens;

  TempFile file("ckpt_test_quiesce.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.step();  // leaves prefetches for upcoming layers in flight
    gen.snapshot(file.path);
  }
  runtime::Generator gen(config);
  gen.resume(file.path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens, expected);
}

TEST(GeneratorCkpt, SessionApiMatchesGenerate) {
  // No faults, no checkpoint: the incremental session API alone must
  // reproduce the one-shot generate() path.
  const auto config = tiny_config();
  runtime::Generator one_shot(config);
  const auto expected = one_shot.generate(kPrompts, kGenLen);
  runtime::Generator stepped(config);
  stepped.begin(kPrompts, kGenLen);
  EXPECT_TRUE(stepped.active());
  EXPECT_EQ(stepped.step_index(), 1);
  while (!stepped.done()) stepped.step();
  const auto result = stepped.finish();
  EXPECT_FALSE(stepped.active());
  EXPECT_EQ(result.tokens, expected.tokens);
}

TEST(GeneratorCkpt, SessionContractViolationsAreCheckErrors) {
  const auto config = tiny_config();
  runtime::Generator gen(config);
  EXPECT_THROW(gen.step(), CheckError);            // no session
  EXPECT_THROW(gen.finish(), CheckError);          // no session
  EXPECT_THROW(gen.snapshot("x.ckpt"), CheckError);  // nothing to snapshot
  gen.begin(kPrompts, 2);
  EXPECT_THROW(gen.begin(kPrompts, 2), CheckError);  // already active
  TempFile file("ckpt_test_active.ckpt");
  gen.snapshot(file.path);
  EXPECT_THROW(gen.resume(file.path), CheckError);  // resume over a session
}

TEST(GeneratorCkpt, ConfigDriftIsMismatch) {
  const auto config = tiny_config();
  TempFile file("ckpt_test_drift.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.snapshot(file.path);
  }
  // Same model, different quantization / window / pool: every drift that
  // would change the schedule must be rejected, not silently absorbed.
  for (const auto& mutate :
       std::vector<void (*)(runtime::RuntimeConfig&)>{
           [](runtime::RuntimeConfig& c) { c.weight_bits = 4; },
           [](runtime::RuntimeConfig& c) { c.window_tokens = 6; },
           [](runtime::RuntimeConfig& c) { c.kv_block_tokens = 4; },
           [](runtime::RuntimeConfig& c) { c.host_capacity /= 2; },
           [](runtime::RuntimeConfig& c) { c.sampling.temperature = 0.0; },
       }) {
    auto drifted = config;
    mutate(drifted);
    runtime::Generator gen(drifted);
    EXPECT_THROW(gen.resume(file.path), CheckpointMismatch);
    EXPECT_FALSE(gen.active());  // rejection leaves no half-restored state
  }
}

TEST(GeneratorCkpt, CorruptCheckpointLeavesGeneratorUsable) {
  const auto config = tiny_config();
  TempFile file("ckpt_test_corrupt.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.snapshot(file.path);
  }
  auto bytes = read_file(file.path);
  bytes[bytes.size() / 2] ^= 0x10;  // flip a payload bit
  write_file(file.path, bytes);

  runtime::Generator gen(config);
  EXPECT_THROW(gen.resume(file.path), CheckpointCorrupt);
  EXPECT_FALSE(gen.active());
  // All-or-nothing: the failed restore must not have touched the RNG or
  // fault streams — a fresh generation still works and is deterministic.
  const auto after = gen.generate(kPrompts, 3).tokens;
  runtime::Generator witness(config);
  EXPECT_EQ(after, witness.generate(kPrompts, 3).tokens);
}

TEST(GeneratorCkpt, ReadCheckpointMetaProbesWithoutPools) {
  auto config = tiny_config(/*window_tokens=*/6);
  TempFile file("ckpt_test_meta.ckpt");
  {
    runtime::Generator gen(config);
    gen.begin(kPrompts, kGenLen);
    gen.step();
    gen.step();
    gen.snapshot(file.path);
  }
  const auto meta = runtime::read_checkpoint_meta(file.path);
  EXPECT_EQ(meta.num_sequences, kPrompts.size());
  EXPECT_EQ(meta.gen_len, kGenLen);
  EXPECT_EQ(meta.produced, 3);  // begin() + two steps
  EXPECT_TRUE(runtime::runtime_config_equal(meta.config, config));
  // The meta is enough to rebuild the Generator and finish the run.
  runtime::Generator gen(meta.config);
  gen.resume(file.path);
  while (!gen.done()) gen.step();
  EXPECT_EQ(gen.finish().tokens[0].size(),
            static_cast<std::size_t>(kGenLen));
}

TEST(GeneratorCkpt, RuntimeConfigCodecRoundTrips) {
  auto config = tiny_config(/*window_tokens=*/6);
  config.kv_block_tokens = 4;
  config.compute_threads = 3;
  config.recovery.max_transfer_attempts = 7;
  ckpt::ByteWriter writer;
  runtime::encode_runtime_config(writer, config);
  ckpt::ByteReader reader(writer.buffer());
  const auto decoded = runtime::decode_runtime_config(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(runtime::runtime_config_equal(decoded, config));
  auto other = config;
  other.window_tokens += 1;
  EXPECT_FALSE(runtime::runtime_config_equal(decoded, other));
}

}  // namespace
}  // namespace lmo
