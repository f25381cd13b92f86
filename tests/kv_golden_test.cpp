// Golden values for the KV cache paths. Each literal below was produced by
// the earlier four-backend KV design (dense, paged, window and shared
// caches) for the same config: full-precision and quantized rows (including
// a group size that does not divide `hidden`), a sliding window, a warm
// prefix hit, a copy-on-write truncate into borrowed rows, beam search,
// speculative decoding, and kill-resume cut exactly on a block boundary.
//
// Bit-exact checks: an FNV-1a hash over every decode step's logits for the
// dense, quantized and windowed caches and for the copy-on-write case,
// evaluate_sequence log-likelihoods, and beam scores. The cases that only
// the Generator can drive (warm prefix hit, kill-resume) compare tokens.
// Sampling runs at temperature 15, where the tiny model's tokens follow its
// logits closely enough that a KV error the size of kv4 quantization moves
// them (kv16 and kv4 diverge in the second sequence below).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/runtime/beam_search.hpp"
#include "lmo/runtime/evaluate.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/speculative.hpp"
#include "lmo/util/tempdir.hpp"

namespace lmo::runtime {
namespace {

using Tokens = std::vector<std::vector<std::int64_t>>;

constexpr double kTemperature = 15.0;
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

RuntimeConfig base_config() {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 64, 4, 256);
  config.prefetch_threads = 0;
  config.sampling.temperature = kTemperature;
  return config;
}

const Tokens kPrompts = {{5, 9, 2, 7, 1, 33, 12, 40, 3}, {40, 41, 42, 43, 44}};
const std::vector<std::int64_t> kEvalSequence = {
    5, 9, 2, 7, 1, 33, 12, 40, 3, 8, 77, 78, 79, 100, 4, 6, 31, 64, 2, 9};
// A published prompt and a second prompt sharing its first two 4-token
// blocks.
const std::vector<std::int64_t> kPublished = {5, 9, 2, 7, 1, 33, 12, 40, 3, 8};
const std::vector<std::int64_t> kSharer = {5, 9, 2, 7, 1, 33, 12, 40,
                                           77, 78, 79};

Tokens generate(const RuntimeConfig& config) {
  Generator generator(config);
  return generator.generate(kPrompts, 12).tokens;
}

double eval_nll(const RuntimeConfig& config) {
  Generator generator(config);
  return evaluate_sequence(generator, kEvalSequence, 1).nll;
}

std::uint64_t fnv1a(std::uint64_t hash, const tensor::Tensor& logits) {
  for (const float value : logits.f32()) {
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
  }
  return hash;
}

struct Decoded {
  std::vector<std::int64_t> tokens;
  std::uint64_t logits_hash = kFnvOffset;
};

/// Prefill kPrompts[0] into `cache`, then decode 12 tokens one step at a
/// time, hashing the logits of every step.
Decoded decode_hashed(Generator& generator, SequenceCache& cache) {
  Transformer& transformer = generator.transformer();
  std::vector<SequenceCache*> caches = {&cache};
  util::Xoshiro256 rng(99);
  SamplingConfig sampling;
  sampling.temperature = kTemperature;
  Decoded out;
  std::vector<tensor::Tensor> states = {transformer.embed(kPrompts[0])};
  transformer.forward(states, caches);
  tensor::Tensor logits = transformer.logits(states[0]);
  out.logits_hash = fnv1a(out.logits_hash, logits);
  std::int64_t next = sample_token(logits, sampling, rng);
  for (int i = 0; i < 12; ++i) {
    out.tokens.push_back(next);
    const std::int64_t token[] = {next};
    std::vector<tensor::Tensor> step = {transformer.embed(token)};
    transformer.forward(step, caches);
    logits = transformer.logits(step[0]);
    out.logits_hash = fnv1a(out.logits_hash, logits);
    next = sample_token(logits, sampling, rng);
  }
  return out;
}

Decoded decode_hashed(const RuntimeConfig& config) {
  Generator generator(config);
  SequenceCache cache;
  for (std::int64_t layer = 0; layer < config.spec.num_layers; ++layer) {
    cache.emplace_back(config.spec.hidden, config.kv_bits, config.quant_group,
                       generator.host_pool(), config.kv_block_tokens,
                       config.window_tokens);
  }
  return decode_hashed(generator, cache);
}

/// Snapshot after `cut` tokens, destroy the generator, resume on a fresh
/// one and finish. `warm` (optional) is generated first to seed the prefix
/// cache, so the snapshot carries borrowed rows.
Tokens kill_resume(const RuntimeConfig& config, const Tokens& prompts,
                   std::int64_t cut, const Tokens& warm = {}) {
  util::TempDir dir("kv_golden_test");
  const std::string path = dir.file("cut.ckpt");
  {
    Generator generator(config);
    if (!warm.empty()) generator.generate(warm, 4);
    generator.begin(prompts, 12);
    while (generator.step_index() < cut) generator.step();
    generator.snapshot(path);
  }
  Generator generator(config);
  generator.resume(path);
  while (!generator.done()) generator.step();
  return generator.finish().tokens;
}

TEST(KvGolden, FullPrecisionAndQuantizedRows) {
  auto config = base_config();
  const Tokens dense = {{3, 166, 28, 82, 120, 120, 42, 54, 129, 244, 240, 115},
                        {208, 219, 221, 60, 161, 70, 154, 207, 241, 233, 88,
                         12}};
  const std::vector<std::int64_t> stepped = {57,  113, 113, 212, 212, 61,
                                             61,  15,  212, 169, 176, 59};
  EXPECT_EQ(generate(config), dense);
  EXPECT_EQ(eval_nll(config), 0x1.2cac69ep+10);
  Decoded decoded = decode_hashed(config);
  EXPECT_EQ(decoded.tokens, stepped);
  EXPECT_EQ(decoded.logits_hash, 0x20ca83cdfd6ca421ull);

  config.kv_bits = 8;
  EXPECT_EQ(generate(config), dense);
  EXPECT_EQ(eval_nll(config), 0x1.2cac94ep+10);
  decoded = decode_hashed(config);
  EXPECT_EQ(decoded.tokens, stepped);
  EXPECT_EQ(decoded.logits_hash, 0xb5f58fa9ffce1b5full);

  config.kv_bits = 4;
  EXPECT_EQ(generate(config),
            (Tokens{dense[0],
                    {208, 219, 221, 60, 161, 70, 154, 208, 242, 242, 79, 12}}));
  EXPECT_EQ(eval_nll(config), 0x1.2cc4fe9p+10);
  decoded = decode_hashed(config);
  EXPECT_EQ(decoded.tokens, stepped);
  EXPECT_EQ(decoded.logits_hash, 0x95d1ba31c6fb1a13ull);
}

TEST(KvGolden, QuantGroupThatDoesNotDivideHidden) {
  auto config = base_config();
  config.spec = model::ModelSpec::tiny(2, 96, 4, 256);
  config.kv_bits = 4;
  config.quant_group = 64;
  EXPECT_EQ(generate(config),
            (Tokens{{3, 121, 52, 52, 83, 83, 83, 83, 83, 232, 232, 232},
                    {169, 171, 192, 192, 192, 192, 192, 192, 218, 218, 123,
                     35}}));
  EXPECT_EQ(eval_nll(config), 0x1.b58d5a8p+10);
  const Decoded decoded = decode_hashed(config);
  EXPECT_EQ(decoded.tokens, (std::vector<std::int64_t>{
                                3, 67, 67, 68, 111, 102, 102, 31, 159, 159,
                                159, 104}));
  EXPECT_EQ(decoded.logits_hash, 0x7fb98ea605a0f9b3ull);
}

TEST(KvGolden, SlidingWindow) {
  auto config = base_config();
  config.window_tokens = 8;
  EXPECT_EQ(generate(config),
            (Tokens{{3, 166, 28, 82, 120, 120, 42, 54, 129, 245, 221, 119},
                    {208, 219, 221, 60, 161, 70, 154, 207, 241, 233, 88, 12}}));
  // 4-row blocks: the head block is dropped every fourth step.
  config.kv_block_tokens = 4;
  const Decoded decoded = decode_hashed(config);
  EXPECT_EQ(decoded.tokens, (std::vector<std::int64_t>{
                                57, 113, 113, 212, 212, 61, 61, 14, 209, 189,
                                189, 73}));
  EXPECT_EQ(decoded.logits_hash, 0x3a3f16d8b50605f1ull);
}

TEST(KvGolden, WarmPrefixHit) {
  auto config = base_config();
  config.prefix_share = true;
  config.kv_block_tokens = 4;
  Generator generator(config);
  EXPECT_EQ(generator.generate({kPublished}, 8).tokens,
            (Tokens{{8, 206, 206, 216, 26, 219, 132, 56}}));
  EXPECT_EQ(generator.generate({kSharer, {40, 41, 42}}, 8).tokens,
            (Tokens{{123, 123, 43, 89, 119, 244, 240, 114},
                    {146, 70, 155, 206, 242, 242, 78, 14}}));
  EXPECT_EQ(
      generator.manager().metrics().counter("kvshare.hit_tokens").value(), 8u);
}

TEST(KvGolden, CopyOnWriteTruncateIntoBorrowedRows) {
  // Publish kPublished's rows, borrow the two matched blocks for kSharer,
  // decode, then truncate into the second borrowed block and continue.
  const auto config = base_config();
  Generator generator(config);
  Transformer& transformer = generator.transformer();
  const std::int64_t hidden = config.spec.hidden;
  const std::int64_t layers = config.spec.num_layers;
  const std::int64_t bt = 4;
  kvshare::PrefixCacheConfig pc;
  pc.block_tokens = bt;
  pc.hidden = hidden;
  pc.num_layers = layers;
  kvshare::PrefixCache prefix(pc, &generator.host_pool(), nullptr);
  {
    SequenceCache full = transformer.make_cache(16, 32, generator.host_pool());
    std::vector<SequenceCache*> caches = {&full};
    std::vector<tensor::Tensor> states = {transformer.embed(kPublished)};
    transformer.forward(states, caches);
    prefix.insert(kPublished, [&](std::int64_t offset, float* payload) {
      for (std::int64_t layer = 0; layer < layers; ++layer) {
        for (std::int64_t slot = 0; slot < bt; ++slot) {
          const KVCache& kv = full[static_cast<std::size_t>(layer)];
          kv.copy_row(true, offset + slot,
                      payload + ((layer * 2 + 0) * bt + slot) * hidden);
          kv.copy_row(false, offset + slot,
                      payload + ((layer * 2 + 1) * bt + slot) * hidden);
        }
      }
    });
  }
  auto lease = prefix.match(kSharer);
  ASSERT_NE(lease, nullptr);
  ASSERT_EQ(lease->matched_tokens(), 8);

  SequenceCache cache;
  for (std::int64_t layer = 0; layer < layers; ++layer) {
    cache.emplace_back(hidden, 16, 32, generator.host_pool(), bt);
    cache.back().borrow(lease, layer, 8);
  }
  std::vector<SequenceCache*> caches = {&cache};
  util::Xoshiro256 rng(99);
  SamplingConfig sampling;
  sampling.temperature = kTemperature;
  std::vector<std::int64_t> out;
  std::vector<tensor::Tensor> states = {transformer.embed(
      std::vector<std::int64_t>(kSharer.begin() + 8, kSharer.end()))};
  transformer.forward(states, caches);
  std::int64_t next = sample_token(transformer.logits(states[0]), sampling, rng);
  const auto decode = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      out.push_back(next);
      const std::int64_t token[] = {next};
      std::vector<tensor::Tensor> step = {transformer.embed(token)};
      transformer.forward(step, caches);
      next = sample_token(transformer.logits(step[0]), sampling, rng);
    }
  };
  decode(6);
  for (KVCache& kv : cache) {
    kv.truncate(6);
    EXPECT_EQ(kv.borrowed_rows(), 4);  // the cut block was copied out
  }
  std::vector<tensor::Tensor> replay = {
      transformer.embed(std::vector<std::int64_t>{kSharer[6], 99, 100})};
  transformer.forward(replay, caches);
  next = sample_token(transformer.logits(replay[0]), sampling, rng);
  decode(6);
  EXPECT_EQ(out, (std::vector<std::int64_t>{79, 118, 102, 211, 211, 57, 17,
                                            207, 184, 185, 67, 37}));

  // The replay's logits, bit for bit (FNV-1a over the f32 patterns).
  EXPECT_EQ(fnv1a(kFnvOffset, transformer.logits(replay[0])),
            0xf81b5ccbf351c20bull);
}

TEST(KvGolden, BeamWidthThree) {
  auto config = base_config();
  config.kv_bits = 4;
  Generator generator(config);
  BeamSearchConfig beam;
  beam.beam_width = 3;
  const auto result = beam_search(generator, {5, 9, 2, 7, 1}, 8, beam);
  ASSERT_EQ(result.beams.size(), 3u);
  EXPECT_EQ(result.beams[0].tokens,
            (std::vector<std::int64_t>{1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(result.beams[1].tokens,
            (std::vector<std::int64_t>{147, 147, 147, 147, 147, 147, 147, 147}));
  EXPECT_EQ(result.beams[2].tokens,
            (std::vector<std::int64_t>{1, 147, 147, 147, 147, 147, 147, 147}));
  EXPECT_EQ(result.beams[0].log_prob, -0x1.fffffffffffffp-53);
  EXPECT_EQ(result.beams[1].log_prob, -0x1.253298p+5);
  EXPECT_EQ(result.beams[2].log_prob, -0x1.292cc8p+5);
}

TEST(KvGolden, SpeculativeDecoding) {
  auto target_config = base_config();
  target_config.kv_bits = 8;
  auto draft_config = base_config();
  draft_config.spec = model::ModelSpec::tiny(1, 32, 4, 256);
  draft_config.seed = 7;
  Generator target(target_config);
  Generator draft(draft_config);
  SpeculativeConfig speculative;
  speculative.draft_tokens = 3;
  const auto result =
      speculative_generate(target, draft, {8, 6, 4}, 12, speculative);
  EXPECT_EQ(result.tokens, std::vector<std::int64_t>(12, 4));
  EXPECT_EQ(result.draft_accepted, 9);
  EXPECT_EQ(result.draft_proposed, 9);
}

TEST(KvGolden, KillResumeOnABlockBoundary) {
  // Each cut leaves a whole number of 4-row blocks in the caches.
  auto quantized = base_config();
  quantized.kv_bits = 4;
  quantized.kv_block_tokens = 4;
  EXPECT_EQ(kill_resume(quantized, {{5, 9, 2, 7, 1, 33}}, 3),  // 6 + 2 rows
            (Tokens{{9, 206, 206, 216, 27, 222, 138, 58, 98, 149, 149, 76}}));

  auto window = base_config();
  window.window_tokens = 8;
  window.kv_block_tokens = 4;
  EXPECT_EQ(kill_resume(window, {kPrompts[0]}, 4),  // 9 + 3 appended rows
            (Tokens{{3, 204, 204, 215, 26, 219, 131, 59, 111, 149, 149, 76}}));

  auto shared = base_config();
  shared.prefix_share = true;
  shared.kv_block_tokens = 4;
  EXPECT_EQ(kill_resume(shared, {kSharer}, 2, {kPublished}),  // 11 + 1 rows
            (Tokens{{33, 223, 127, 54, 115, 156, 145, 63, 49, 144, 121, 206}}));
}

}  // namespace
}  // namespace lmo::runtime
