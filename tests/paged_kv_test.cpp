// Tests for the KV cache's block table (vLLM-style paging): rows land in
// fixed-size blocks allocated on demand, the pool is charged per stored
// row, and the layout never changes what a read returns.
#include <gtest/gtest.h>

#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

constexpr std::size_t kRowBytes16 = 2 * 16 * sizeof(float);  // K + V, h=16

TEST(KVBlockTable, BlockSizeNeverChangesContents) {
  MemoryPool mem_small("s", 1 << 20);
  MemoryPool mem_large("l", 1 << 20);
  KVCache small(16, 16, 16, mem_small, /*block_tokens=*/4);
  KVCache large(16, 16, 16, mem_large, /*block_tokens=*/64);

  util::Xoshiro256 rng(3);
  for (int i = 0; i < 11; ++i) {  // crosses block boundaries (4-row blocks)
    const Tensor k = Tensor::uniform({16}, rng);
    const Tensor v = Tensor::uniform({16}, rng);
    small.append(k, v);
    large.append(k, v);
  }
  EXPECT_EQ(small.length(), 11);
  EXPECT_EQ(small.blocks(), 3u);  // ceil(11/4)
  EXPECT_EQ(large.blocks(), 1u);
  EXPECT_EQ(small.keys().max_abs_diff(large.keys()), 0.0f);
  EXPECT_EQ(small.values().max_abs_diff(large.values()), 0.0f);
  // Charged per stored row, not per reserved block: the tail block's three
  // unused slots cost nothing.
  EXPECT_EQ(mem_small.used(), 11 * kRowBytes16);
  EXPECT_EQ(mem_large.used(), mem_small.used());
}

TEST(KVBlockTable, QuantizedRowsAreChargedPerRow) {
  MemoryPool mem("q", 1 << 20);
  KVCache cache(16, 4, 8, mem, /*block_tokens=*/4);
  util::Xoshiro256 rng(4);
  cache.append(Tensor::uniform({16}, rng), Tensor::uniform({16}, rng));
  const std::size_t row = mem.used();
  EXPECT_LT(row, kRowBytes16);  // compressed at rest
  for (int i = 1; i < 6; ++i) {
    cache.append(Tensor::uniform({16}, rng), Tensor::uniform({16}, rng));
  }
  EXPECT_EQ(mem.used(), 6 * row);
  EXPECT_EQ(cache.stored_bytes(), 6 * row);
  cache.truncate(3);
  EXPECT_EQ(mem.used(), 3 * row);
  EXPECT_EQ(cache.blocks(), 1u);
}

TEST(KVBlockTable, ReleasesEveryRowOnDestruction) {
  MemoryPool mem("p", 1 << 20);
  {
    KVCache cache(8, 16, 8, mem, /*block_tokens=*/4);
    util::Xoshiro256 rng(5);
    for (int i = 0; i < 9; ++i) {
      cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
    }
    EXPECT_EQ(cache.blocks(), 3u);
    EXPECT_GT(mem.used(), 0u);
  }
  EXPECT_EQ(mem.used(), 0u);
}

TEST(KVBlockTable, SequencesShareThePoolWithDisjointBlocks) {
  MemoryPool mem("p", 1 << 20);
  KVCache a(16, 16, 16, mem, /*block_tokens=*/4);
  KVCache b(16, 16, 16, mem, /*block_tokens=*/4);
  for (int i = 0; i < 4; ++i) {
    a.append(Tensor::full({16}, 1.0f), Tensor::full({16}, 1.0f));
  }
  b.append(Tensor::full({16}, 2.0f), Tensor::full({16}, 2.0f));
  EXPECT_EQ(mem.used(), 5 * kRowBytes16);
  EXPECT_FLOAT_EQ(a.keys().at({3, 0}), 1.0f);  // b's write never lands in a
  EXPECT_FLOAT_EQ(b.keys().at({0, 0}), 2.0f);
}

TEST(KVBlockTable, CloneCopiesAndChargesPrivateRows) {
  MemoryPool mem("p", 1 << 20);
  KVCache cache(8, 16, 8, mem, /*block_tokens=*/4);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 6; ++i) {
    cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  }
  const auto used = mem.used();
  {
    KVCache copy = cache.clone();
    EXPECT_EQ(mem.used(), 2 * used);
    EXPECT_EQ(copy.blocks(), cache.blocks());
    EXPECT_EQ(copy.keys().max_abs_diff(cache.keys()), 0.0f);
    copy.truncate(0);
    EXPECT_EQ(copy.blocks(), 0u);
    EXPECT_EQ(mem.used(), used);  // the original is intact
    EXPECT_EQ(cache.length(), 6);
  }
  EXPECT_EQ(mem.used(), used);
}

TEST(KVBlockTable, RejectsWrongShapeAndGeometry) {
  MemoryPool mem("p", 1 << 20);
  KVCache cache(8, 16, 8, mem, /*block_tokens=*/4);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
  EXPECT_THROW(KVCache(8, 16, 8, mem, /*block_tokens=*/0), CheckError);
  EXPECT_THROW(KVCache(0, 16, 8, mem), CheckError);
  EXPECT_THROW(KVCache(8, 3, 8, mem), CheckError);
}

TEST(KVBlockTable, GeneratorTokensIndependentOfBlockSize) {
  // Routing the whole generator through 4-row blocks must not change a
  // single token — block size is memory layout only.
  RuntimeConfig large;
  large.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  large.prefetch_threads = 0;
  RuntimeConfig small = large;
  small.kv_block_tokens = 4;  // forces several blocks per sequence

  Generator g_large(large);
  Generator g_small(small);
  const std::vector<std::vector<std::int64_t>> prompts = {
      {5, 9, 2, 7, 1, 33}, {40, 41, 42}};
  const auto r_large = g_large.generate(prompts, 10);
  const auto r_small = g_small.generate(prompts, 10);
  EXPECT_EQ(r_large.tokens, r_small.tokens);
  EXPECT_EQ(r_small.kv_stored_bytes, r_large.kv_stored_bytes);
  EXPECT_GT(r_small.kv_stored_bytes, 0u);
}

TEST(KVBlockTable, CheckpointRoundTripsAtBlockBoundaries) {
  // Snapshot one short of a block boundary, exactly at it, and one past
  // it: the restored cache reproduces contents and block count.
  util::Xoshiro256 rng(17);
  for (const int bits : {16, 4}) {
    for (const int tokens : {7, 8, 9}) {  // 4-row blocks: -1 / exact / +1
      SCOPED_TRACE(std::to_string(bits) + " bits, " + std::to_string(tokens));
      MemoryPool mem("p", 1 << 20);
      KVCache original(16, bits, 8, mem, /*block_tokens=*/4);
      for (int i = 0; i < tokens; ++i) {
        original.append(Tensor::uniform({16}, rng),
                        Tensor::uniform({16}, rng));
      }
      ckpt::ByteWriter writer;
      encode_kv_cache(writer, original);
      ckpt::ByteReader reader(writer.buffer());
      KVCache restored(16, bits, 8, mem, /*block_tokens=*/4);
      decode_kv_cache(reader, restored);
      EXPECT_TRUE(reader.exhausted());
      ASSERT_EQ(restored.length(), tokens);
      EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
      EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
      EXPECT_EQ(restored.blocks(), original.blocks());
      EXPECT_EQ(restored.stored_bytes(), original.stored_bytes());
    }
  }
}

}  // namespace
}  // namespace lmo::runtime
