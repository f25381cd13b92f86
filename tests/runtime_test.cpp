// Tests for the real-execution path: memory pools, the offload manager
// (including async prefetch staging), the compressed KV cache, the tiny
// transformer's numerics and the end-to-end generator.
#include <gtest/gtest.h>

#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/runtime/transformer.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

// ----------------------------------------------------------------- pools --

TEST(MemoryPool, ChargesReleasesAndTracksPeak) {
  MemoryPool pool("gpu", 100);
  pool.charge(60);
  EXPECT_EQ(pool.used(), 60u);
  EXPECT_EQ(pool.available(), 40u);
  pool.charge(40);
  EXPECT_EQ(pool.peak(), 100u);
  pool.release(50);
  EXPECT_EQ(pool.used(), 50u);
  EXPECT_EQ(pool.peak(), 100u);  // high-water mark sticks
}

TEST(MemoryPool, OverflowThrowsWithDiagnostics) {
  MemoryPool pool("gpu", 100);
  pool.charge(80);
  try {
    pool.charge(30);
    FAIL() << "expected exhaustion";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("gpu"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos);
  }
  EXPECT_EQ(pool.used(), 80u);  // failed charge left no residue
}

TEST(MemoryPool, ReleasingMoreThanUsedThrows) {
  MemoryPool pool("x", 10);
  pool.charge(5);
  EXPECT_THROW(pool.release(6), CheckError);
}

TEST(PoolCharge, RaiiReleasesOnScopeExit) {
  MemoryPool pool("x", 100);
  {
    PoolCharge charge(pool, 40);
    EXPECT_EQ(pool.used(), 40u);
    PoolCharge moved = std::move(charge);
    EXPECT_EQ(pool.used(), 40u);
  }
  EXPECT_EQ(pool.used(), 0u);
}

// -------------------------------------------------------- offload manager --

TEST(OffloadManager, DeviceTierServedWithoutTraffic) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(1);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kDevice);
  EXPECT_EQ(mgr.tier_of("w"), Tier::kDevice);
  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_EQ(mgr.stats().bytes_host_to_device, 0.0);
  EXPECT_EQ(mgr.stats().device_hits, 1u);
  EXPECT_GT(device.used(), 0u);
  EXPECT_EQ(host.used(), 0u);
}

TEST(OffloadManager, HostTierFp16RoundTrip) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(2);
  const Tensor original = Tensor::uniform({32, 8}, rng);
  mgr.register_tensor("w", original, Tier::kHost);
  EXPECT_EQ(mgr.stored_bytes("w"), 32u * 8u * 2u);  // fp16
  const Tensor fetched = mgr.fetch("w");
  EXPECT_LE(original.max_abs_diff(fetched), 1e-3f);
  EXPECT_GT(mgr.stats().bytes_host_to_device, 0.0);
}

TEST(OffloadManager, QuantizedHostTierCompressesAndDequantizes) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 4, /*group_size=*/32);
  util::Xoshiro256 rng(3);
  const Tensor original = Tensor::uniform({64, 64}, rng);
  mgr.register_tensor("w", original, Tier::kHost);
  // 4-bit payload ≈ fp32/8.
  EXPECT_LT(mgr.stored_bytes("w"), original.byte_size() / 4);
  EXPECT_GT(mgr.stats().quantize_seconds, 0.0);
  const Tensor fetched = mgr.fetch("w");
  // 4-bit group-wise error on uniform[-1,1] data: ≤ half a step ≈ 0.067.
  EXPECT_LE(original.max_abs_diff(fetched), 0.08f);
  EXPECT_GT(mgr.stats().dequantize_seconds, 0.0);
}

TEST(OffloadManager, PrefetchStagesAndFetchConsumes) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 8, 32);
  util::Xoshiro256 rng(4);
  mgr.register_tensor("w", Tensor::uniform({32, 32}, rng), Tier::kHost);

  parallel::ThreadPool pool(2);
  mgr.prefetch("w", pool).get();
  const double bytes_after_prefetch = mgr.stats().bytes_host_to_device;
  EXPECT_GT(bytes_after_prefetch, 0.0);

  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 1024);
  // Served from staging — no second transfer.
  EXPECT_EQ(mgr.stats().bytes_host_to_device, bytes_after_prefetch);
  EXPECT_EQ(mgr.stats().staging_hits, 1u);

  // A further fetch transfers again (staging slot consumed).
  (void)mgr.fetch("w");
  EXPECT_GT(mgr.stats().bytes_host_to_device, bytes_after_prefetch);
}

TEST(OffloadManager, DuplicateAndUnknownNamesThrow) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host);
  util::Xoshiro256 rng(5);
  mgr.register_tensor("w", Tensor::uniform({4}, rng), Tier::kDevice);
  EXPECT_THROW(
      mgr.register_tensor("w", Tensor::uniform({4}, rng), Tier::kDevice),
      CheckError);
  EXPECT_THROW(mgr.fetch("missing"), CheckError);
  EXPECT_THROW(mgr.tier_of("missing"), CheckError);
}

// --------------------------------------------------------------- kv cache --

TEST(KVCache, AppendAndMaterializeFp32) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache(8, 16, 8, pool);
  util::Xoshiro256 rng(6);
  const Tensor k = Tensor::uniform({8}, rng);
  const Tensor v = Tensor::uniform({8}, rng);
  cache.append(k, v);
  cache.append(v, k);
  EXPECT_EQ(cache.length(), 2);
  const Tensor keys = cache.keys();
  EXPECT_EQ(keys.shape(), tensor::Shape({2, 8}));
  EXPECT_EQ(tensor::Tensor(keys).at({0, 0}), k.at({0}));
  EXPECT_GT(pool.used(), 0u);
}

TEST(KVCache, QuantizedStorageShrinksAndStaysClose) {
  MemoryPool pool_plain("p", 1 << 20);
  MemoryPool pool_quant("q", 1 << 20);
  KVCache plain(64, 16, 32, pool_plain);
  KVCache quant(64, 4, 32, pool_quant);
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 10; ++i) {
    const Tensor k = Tensor::uniform({64}, rng);
    const Tensor v = Tensor::uniform({64}, rng);
    plain.append(k, v);
    quant.append(k, v);
  }
  EXPECT_LT(quant.stored_bytes(), plain.stored_bytes() / 4);
  EXPECT_LE(plain.keys().max_abs_diff(quant.keys()), 0.08f);
  EXPECT_GT(quant.quantize_seconds(), 0.0);
  (void)quant.values();
  EXPECT_GT(quant.dequantize_seconds(), 0.0);
}

TEST(KVCache, ReleasesPoolOnDestruction) {
  MemoryPool pool("h", 1 << 20);
  {
    KVCache cache(8, 16, 8, pool);
    util::Xoshiro256 rng(8);
    cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
    EXPECT_GT(pool.used(), 0u);
  }
  EXPECT_EQ(pool.used(), 0u);
}

TEST(KVCache, RejectsWrongRowShape) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache(8, 16, 8, pool);
  EXPECT_THROW(cache.append(Tensor::zeros({4}), Tensor::zeros({4})),
               CheckError);
}

// ------------------------------------------------------------ transformer --

RuntimeConfig tiny_config(int weight_bits = 16, int kv_bits = 16,
                          std::int64_t device_layers = 0) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = weight_bits;
  config.kv_bits = kv_bits;
  config.quant_group = 16;
  config.device_layers = device_layers;
  config.prefetch_threads = 0;
  return config;
}

TEST(Transformer, DeterministicLogits) {
  Generator g1(tiny_config());
  Generator g2(tiny_config());
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const auto r1 = g1.generate(prompts, 6);
  const auto r2 = g2.generate(prompts, 6);
  EXPECT_EQ(r1.tokens, r2.tokens);
  EXPECT_EQ(r1.tokens[0].size(), 6u);
}

TEST(Transformer, KvCacheMatchesFullRecompute) {
  // Decoding token-by-token with the cache must equal prefilling the whole
  // sequence at once — the cache is exact, not an approximation.
  RuntimeConfig config = tiny_config();
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7, 1};

  Generator incremental(config);
  const auto inc =
      incremental.generate({{prompt[0], prompt[1], prompt[2]}}, 3);

  // Build the "full" run: feed the prompt plus the first two generated
  // tokens, and check the third prediction matches.
  std::vector<std::int64_t> extended = {prompt[0], prompt[1], prompt[2]};
  extended.push_back(inc.tokens[0][0]);
  extended.push_back(inc.tokens[0][1]);
  Generator full(config);
  const auto one = full.generate({extended}, 1);
  EXPECT_EQ(one.tokens[0][0], inc.tokens[0][2]);
}

TEST(Transformer, QuantizedWeightsStayNumericallyClose) {
  const std::vector<std::vector<std::int64_t>> prompts = {{3, 1, 4, 1, 5}};
  Generator full(tiny_config(16, 16));
  Generator quant8(tiny_config(8, 16));
  const auto r_full = full.generate(prompts, 8);
  const auto r_q8 = quant8.generate(prompts, 8);
  // 8-bit group-wise weights rarely flip greedy decisions on a tiny model;
  // require a mostly matching prefix rather than exact equality.
  std::size_t matching = 0;
  while (matching < 8 && r_full.tokens[0][matching] == r_q8.tokens[0][matching]) {
    ++matching;
  }
  EXPECT_GE(matching, 4u);
}

TEST(Transformer, DeviceResidentLayersSkipTraffic) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3}};
  Generator offloaded(tiny_config(16, 16, /*device_layers=*/0));
  Generator resident(tiny_config(16, 16, /*device_layers=*/2));
  const auto r_off = offloaded.generate(prompts, 4);
  const auto r_res = resident.generate(prompts, 4);
  EXPECT_GT(r_off.offload.bytes_host_to_device, 0.0);
  EXPECT_EQ(r_res.offload.bytes_host_to_device, 0.0);
  EXPECT_EQ(r_off.tokens, r_res.tokens);  // placement must not change math
}

TEST(Transformer, WeightNameScheme) {
  EXPECT_EQ(Transformer::weight_name(3, "wq"), "layer3.wq");
}

// -------------------------------------------------------------- generator --

TEST(Generator, BatchedPromptsShareWeightFetches) {
  // Layer-outer execution: doubling the batch should not double the
  // weight traffic (it is amortized across sequences).
  const std::vector<std::vector<std::int64_t>> one = {{1, 2, 3}};
  const std::vector<std::vector<std::int64_t>> four = {
      {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {2, 4, 6}};
  Generator g1(tiny_config());
  Generator g4(tiny_config());
  const auto r1 = g1.generate(one, 4);
  const auto r4 = g4.generate(four, 4);
  EXPECT_EQ(r4.tokens.size(), 4u);
  EXPECT_NEAR(r4.offload.bytes_host_to_device,
              r1.offload.bytes_host_to_device, 1.0);
}

TEST(Generator, QuantizedKvChargesLessHostMemory) {
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4, 5}};
  Generator plain(tiny_config(16, 16));
  Generator quant(tiny_config(16, 4));
  const auto r_plain = plain.generate(prompts, 8);
  const auto r_quant = quant.generate(prompts, 8);
  EXPECT_LT(r_quant.kv_stored_bytes, r_plain.kv_stored_bytes / 3);
  EXPECT_GT(r_quant.kv_quantize_seconds, 0.0);
  EXPECT_GT(r_quant.kv_dequantize_seconds, 0.0);
  EXPECT_EQ(r_plain.kv_quantize_seconds, 0.0);
}

TEST(Generator, ReportsPhaseTimesAndPeaks) {
  Generator g(tiny_config());
  const auto r = g.generate({{1, 2, 3, 4}}, 5);
  EXPECT_GT(r.prefill_seconds, 0.0);
  EXPECT_GT(r.decode_seconds, 0.0);
  EXPECT_GT(r.tokens_per_second, 0.0);
  EXPECT_GT(r.host_peak_bytes, 0u);   // offloaded weights + KV
  EXPECT_GT(r.device_peak_bytes, 0u); // embeddings... device pool holds none
}

TEST(Generator, AsyncPrefetchKeepsResultsIdentical) {
  RuntimeConfig sync_config = tiny_config(4, 16);
  RuntimeConfig async_config = sync_config;
  async_config.prefetch_threads = 2;
  Generator sync_gen(sync_config);
  Generator async_gen(async_config);
  const std::vector<std::vector<std::int64_t>> prompts = {{9, 8, 7}};
  const auto r_sync = sync_gen.generate(prompts, 6);
  const auto r_async = async_gen.generate(prompts, 6);
  EXPECT_EQ(r_sync.tokens, r_async.tokens);
  EXPECT_GT(r_async.offload.staging_hits, 0u);
}

TEST(Generator, LayerAheadPrefetchServesEveryWeightOfLayersOneOn) {
  // Every layer but the first is prefetched one layer ahead, all ten of
  // its weights, disk-tier layers included. The watchdog waits forever,
  // so every prefetch is consumed and the count is exact.
  RuntimeConfig config = tiny_config(4, 16);
  config.spec = model::ModelSpec::tiny(8, 32, 4, 64);
  config.disk_layers = 2;
  config.disk_capacity = 16u << 20;
  config.prefetch_threads = 2;
  config.recovery.prefetch_wait_seconds = 0.0;
  Generator generator(config);
  const auto r = generator.generate({{3, 1, 4}, {1, 5, 9}}, 4);
  const OffloadStats& s = r.offload;
  const std::uint64_t streamed = s.fetches - s.device_hits;
  EXPECT_EQ(streamed % 80, 0u);  // 8 layers x 10 weights per forward
  EXPECT_GT(streamed, 0u);
  EXPECT_EQ(8 * s.staging_hits, 7 * streamed);
  EXPECT_EQ(s.sync_fallbacks, 0u);
  // The disk layers are the back two, always prefetched: the main thread
  // never reads the store.
  const auto snap = generator.manager().metrics().snapshot();
  EXPECT_EQ(snap.counter("store.prefetch.misses"), 0u);
  EXPECT_EQ(snap.counter("store.prefetch.hits"), streamed / 80 * 20);
}

TEST(Generator, HeadParallelAttentionBitIdentical) {
  // Heads are independent, so intra-op parallel attention must reproduce
  // the serial tokens exactly — any drift means a data race.
  RuntimeConfig serial = tiny_config(4, 4);
  serial.compute_threads = 0;
  RuntimeConfig threaded = serial;
  threaded.compute_threads = 3;  // does not divide 4 heads — uneven chunks

  Generator g_serial(serial);
  Generator g_threaded(threaded);
  const std::vector<std::vector<std::int64_t>> prompts = {
      {5, 9, 2, 7, 1, 33, 21, 60}, {40, 41, 42, 43}};
  EXPECT_EQ(g_serial.generate(prompts, 12).tokens,
            g_threaded.generate(prompts, 12).tokens);
}

TEST(Generator, PoolExhaustionSurfacesAsError) {
  RuntimeConfig config = tiny_config();
  config.host_capacity = 1024;  // far too small for offloaded weights
  EXPECT_THROW(Generator g(config), CheckError);
}

}  // namespace
}  // namespace lmo::runtime
