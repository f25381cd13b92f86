// Tests for the sliding-window KV cache (Longformer-style bounded
// attention context): a block table that keeps only the most recent
// `window_tokens` rows visible and drops whole head blocks once they slide
// out, plus its accuracy trade-off through the transformer.
#include <gtest/gtest.h>

#include "lmo/runtime/checkpoint.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

KVCache window_cache(std::int64_t hidden, std::int64_t window,
                     MemoryPool& pool, std::int64_t block_tokens = 4) {
  return KVCache(hidden, 16, hidden, pool, block_tokens, window);
}

TEST(WindowKV, BehavesExactlyUntilTheWindowFills) {
  MemoryPool pool("h", 1 << 20);
  KVCache window = window_cache(8, 5, pool);
  KVCache exact(8, 16, 8, pool);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5; ++i) {
    const Tensor k = Tensor::uniform({8}, rng);
    const Tensor v = Tensor::uniform({8}, rng);
    window.append(k, v);
    exact.append(k, v);
    EXPECT_EQ(window.keys().max_abs_diff(exact.keys()), 0.0f);
  }
  EXPECT_EQ(window.first_row(), 0);  // nothing slid out yet
}

TEST(WindowKV, SlidesOldestOutAndKeepsTemporalOrder) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache = window_cache(4, 3, pool);
  for (int i = 0; i < 7; ++i) {
    cache.append(Tensor::full({4}, static_cast<float>(i)),
                 Tensor::full({4}, static_cast<float>(-i)));
  }
  EXPECT_EQ(cache.length(), 3);
  EXPECT_EQ(cache.first_row(), 4);  // 7 appended, 4 slid out
  const Tensor keys = cache.keys();  // tokens 4, 5, 6 in order
  EXPECT_FLOAT_EQ(keys.at({0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(keys.at({1, 0}), 5.0f);
  EXPECT_FLOAT_EQ(keys.at({2, 0}), 6.0f);
  EXPECT_FLOAT_EQ(cache.values().at({2, 0}), -6.0f);
}

TEST(WindowKV, ResidencyIsBoundedByWindowPlusOneBlock) {
  // Whole head blocks are dropped once they slide out, so at most
  // window + block_tokens - 1 rows are ever charged — however long the
  // sequence grows.
  constexpr std::int64_t kHidden = 16, kWindow = 8, kBlock = 4;
  const std::size_t row_bytes = 2 * kHidden * sizeof(float);
  MemoryPool pool("h", 1 << 20);
  KVCache cache = window_cache(kHidden, kWindow, pool, kBlock);
  EXPECT_EQ(pool.used(), 0u);  // nothing reserved up front
  util::Xoshiro256 rng(2);
  std::size_t peak = 0;
  for (int i = 0; i < 100; ++i) {
    cache.append(Tensor::uniform({kHidden}, rng),
                 Tensor::uniform({kHidden}, rng));
    peak = std::max(peak, pool.used());
    ASSERT_LE(pool.used(), (kWindow + kBlock - 1) * row_bytes) << i;
    ASSERT_EQ(pool.used(), cache.stored_bytes());
  }
  EXPECT_EQ(peak, (kWindow + kBlock - 1) * row_bytes);  // the bound is tight
  EXPECT_LE(cache.blocks(), 3u);
}

TEST(WindowKV, TruncateDropsNewestAndCloneIsIndependent) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache = window_cache(4, 3, pool);
  for (int i = 0; i < 5; ++i) {
    cache.append(Tensor::full({4}, static_cast<float>(i)),
                 Tensor::full({4}, static_cast<float>(i)));
  }
  KVCache copy = cache.clone();
  cache.truncate(2);  // keep tokens 2, 3
  EXPECT_EQ(cache.length(), 2);
  EXPECT_FLOAT_EQ(cache.keys().at({1, 0}), 3.0f);
  EXPECT_EQ(copy.length(), 3);  // clone untouched
  EXPECT_FLOAT_EQ(copy.keys().at({2, 0}), 4.0f);
  EXPECT_THROW(cache.truncate(3), CheckError);
  // Appending after truncation takes the dropped row's place.
  cache.append(Tensor::full({4}, 9.0f), Tensor::full({4}, 9.0f));
  EXPECT_FLOAT_EQ(cache.keys().at({0, 0}), 2.0f);
  EXPECT_FLOAT_EQ(cache.keys().at({2, 0}), 9.0f);
}

TEST(WindowKV, TransformerRunsWithBoundedContext) {
  // A window covering the whole sequence reproduces exact decoding; a
  // tight one still generates.
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.prefetch_threads = 0;
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7, 1, 33};
  const std::int64_t gen_len = 10;
  Generator g_exact(config);
  const auto exact = g_exact.generate({prompt}, gen_len).tokens[0];

  const auto run_with_window = [&](std::int64_t window) {
    RuntimeConfig windowed = config;
    windowed.window_tokens = window;
    Generator g(windowed);
    return g.generate({prompt}, gen_len).tokens[0];
  };
  EXPECT_EQ(run_with_window(64), exact);
  EXPECT_EQ(run_with_window(4).size(), static_cast<std::size_t>(gen_len));
}

TEST(WindowKV, GeneratorRejectsQuantizedOrSharedWindows) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.window_tokens = 8;
  config.kv_bits = 4;  // windowed rows are f32 only
  EXPECT_THROW(Generator g(config), CheckError);
  config.kv_bits = 16;
  config.prefix_share = true;  // shared rows never slide
  EXPECT_THROW(Generator g(config), CheckError);
  config.prefix_share = false;
  config.window_tokens = -1;
  EXPECT_THROW(Generator g(config), CheckError);
}

TEST(WindowKV, CheckpointRoundTripsAcrossTheSlide) {
  // Snapshot before the window fills, exactly at the fill point, and after
  // rows slid out: the visible rows and their absolute position survive,
  // and both caches continue identically past the restore point.
  util::Xoshiro256 rng(23);
  for (const int appends : {3, 5, 9}) {  // window 5: partial / full / slid
    SCOPED_TRACE(appends);
    MemoryPool mem_a("a", 1 << 20);
    MemoryPool mem_b("b", 1 << 20);
    KVCache original = window_cache(8, 5, mem_a);
    for (int i = 0; i < appends; ++i) {
      original.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
    }
    ckpt::ByteWriter writer;
    encode_kv_cache(writer, original);
    ckpt::ByteReader reader(writer.buffer());
    KVCache restored = window_cache(8, 5, mem_b);
    decode_kv_cache(reader, restored);
    EXPECT_EQ(restored.length(), original.length());
    EXPECT_EQ(restored.first_row(), original.first_row());
    EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
    EXPECT_EQ(restored.values().max_abs_diff(original.values()), 0.0f);
    for (int i = 0; i < 4; ++i) {
      const Tensor k = Tensor::full({8}, static_cast<float>(100 + i));
      const Tensor v = Tensor::full({8}, static_cast<float>(-100 - i));
      original.append(k, v);
      restored.append(k, v);
      EXPECT_EQ(restored.keys().max_abs_diff(original.keys()), 0.0f);
      EXPECT_EQ(restored.first_row(), original.first_row());
    }
  }
}

TEST(WindowKV, RestoreValidatesShapeWindowAndFreshness) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache = window_cache(4, 3, pool);
  const auto rows = [](std::size_t count, std::size_t width) {
    std::vector<KVCache::Row> out(count);
    for (auto& row : out) row.plain.assign(width, 0.0f);
    return out;
  };
  // Row width mismatch.
  EXPECT_THROW(cache.restore(0, rows(2, 5), rows(2, 5)), CheckError);
  // More rows than the window shows.
  EXPECT_THROW(cache.restore(0, rows(4, 4), rows(4, 4)), CheckError);
  // K/V row counts disagree.
  EXPECT_THROW(cache.restore(0, rows(2, 4), rows(1, 4)), CheckError);
  // Restoring over a non-fresh cache.
  cache.append(Tensor::zeros({4}), Tensor::zeros({4}));
  EXPECT_THROW(cache.restore(1, rows(1, 4), rows(1, 4)), CheckError);
  // Only a windowed cache starts past row 0.
  KVCache full(4, 16, 4, pool);
  EXPECT_THROW(full.restore(2, rows(1, 4), rows(1, 4)), CheckError);
}

TEST(WindowKV, ValidatesInputs) {
  MemoryPool pool("h", 1 << 20);
  EXPECT_THROW(KVCache(0, 16, 4, pool, 4, 4), CheckError);
  EXPECT_THROW(KVCache(8, 16, 8, pool, 4, -1), CheckError);
  EXPECT_THROW(KVCache(8, 4, 8, pool, 4, 4), CheckError);  // f32 only
  KVCache cache = window_cache(8, 4, pool);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
}

}  // namespace
}  // namespace lmo::runtime
