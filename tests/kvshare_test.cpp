// Tests for the cross-request KV prefix-sharing subsystem: radix-tree
// longest-prefix matching, copy-on-write fork isolation, refcount /
// eviction invariants (pinned chains survive pressure, pool bytes stay
// exact), the pool-accounting property every KV backend must honour
// (clone+destroy and truncate-to-zero return the pool to baseline), and
// the end-to-end contract — prefix sharing ON produces byte-identical
// tokens to OFF while strictly reducing prefilled tokens and moved bytes,
// through generation, serving, preemption and checkpoint kill-resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lmo/integrity/integrity.hpp"
#include "lmo/kvshare/block_store.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/kvshare/radix_tree.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"

namespace lmo::kvshare {
namespace {

using runtime::MemoryPool;
using tensor::Tensor;

std::vector<std::int64_t> seq(std::int64_t n, std::int64_t start = 0) {
  std::vector<std::int64_t> tokens;
  for (std::int64_t i = 0; i < n; ++i) tokens.push_back(start + i);
  return tokens;
}

struct TempFile {
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// -- radix tree ------------------------------------------------------------

TEST(RadixTree, LongestPrefixMatchIsWholeBlocks) {
  RadixTree tree(4);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  const auto tokens = seq(12);
  EXPECT_EQ(tree.insert(tokens, make_block).size(), 3u);
  EXPECT_EQ(tree.node_count(), 3u);

  EXPECT_EQ(tree.lookup(tokens).size(), 3u);
  // 7 tokens only cover one whole block.
  EXPECT_EQ(tree.lookup(std::span(tokens.data(), 7)).size(), 1u);
  // A prompt diverging inside the first block misses entirely.
  auto diverged = tokens;
  diverged[2] = 999;
  EXPECT_TRUE(tree.lookup(diverged).empty());
}

TEST(RadixTree, SameFirstTokenDivergentBlocksAreDistinctChildren) {
  RadixTree tree(4);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  const std::vector<std::int64_t> a = {5, 1, 2, 3};
  const std::vector<std::int64_t> b = {5, 1, 2, 9};  // diverges at slot 3
  tree.insert(a, make_block);
  tree.insert(b, make_block);
  EXPECT_EQ(tree.node_count(), 2u);
  EXPECT_EQ(tree.lookup(a).back()->block, 0);
  EXPECT_EQ(tree.lookup(b).back()->block, 1);
}

TEST(RadixTree, InsertReusesExistingNodesAndStopsOnDenial) {
  RadixTree tree(2);
  std::int64_t allocated = 0;
  tree.insert(seq(4), [&](std::int64_t) { return allocated++; });
  // Extending a cached chain only allocates the new tail block.
  tree.insert(seq(6), [&](std::int64_t offset) {
    EXPECT_EQ(offset, 4);  // only the missing block is requested
    return allocated++;
  });
  EXPECT_EQ(allocated, 3);
  // A denied allocation cuts the chain short instead of erroring.
  const auto chain = tree.insert(seq(10), [&](std::int64_t) {
    return std::int64_t{-1};
  });
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(RadixTree, EvictionIsLruByLeafAndPinsProtectAncestors) {
  RadixTree tree(2);
  std::int64_t next_block = 0;
  const auto make_block = [&](std::int64_t) { return next_block++; };

  // Chain A: blocks 0, 1. Chain B: block 2.
  tree.insert(seq(4, 100), make_block);
  tree.insert(seq(2, 200), make_block);
  // Touch A so B becomes the LRU leaf.
  tree.lookup(seq(4, 100));
  EXPECT_EQ(tree.evict_lru(), 2);

  // Pinning A's leaf protects the whole chain: nothing is evictable.
  auto chain = tree.lookup(seq(4, 100));
  ASSERT_EQ(chain.size(), 2u);
  tree.pin(chain.back());
  EXPECT_EQ(tree.evict_lru(), -1);
  tree.unpin(chain.back());
  // Unpinned, the chain dies tail-first (only leaves are candidates).
  EXPECT_EQ(tree.evict_lru(), 1);
  EXPECT_EQ(tree.evict_lru(), 0);
  EXPECT_EQ(tree.evict_lru(), -1);
  EXPECT_EQ(tree.node_count(), 0u);
}

// -- block store -----------------------------------------------------------

TEST(BlockStore, RefcountsAndExactPoolBytes) {
  MemoryPool pool("host", 1 << 20);
  BlockStoreConfig config;
  config.block_tokens = 4;
  config.payload_floats = 8;
  config.bytes_per_block = 8 * sizeof(float);
  BlockStore store(config, &pool);

  const auto a = store.try_allocate();
  const auto b = store.try_allocate();
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_EQ(store.live_blocks(), 2u);
  EXPECT_EQ(pool.used(), 2 * config.bytes_per_block);
  EXPECT_NE(store.payload(a), nullptr);

  store.ref(a);
  EXPECT_EQ(store.refcount(a), 2);
  store.unref(a);
  EXPECT_EQ(store.refcount(a), 1);
  store.unref(a);
  store.unref(b);
  EXPECT_EQ(store.live_blocks(), 0u);
  EXPECT_EQ(pool.used(), 0u);  // every byte returned
}

TEST(BlockStore, CapacityBudgetDeniesNotThrows) {
  BlockStoreConfig config;
  config.block_tokens = 4;
  config.bytes_per_block = 64;
  config.capacity_bytes = 128;  // room for two accounting-only blocks
  BlockStore store(config, nullptr);
  EXPECT_GE(store.try_allocate(), 0);
  EXPECT_GE(store.try_allocate(), 0);
  EXPECT_EQ(store.try_allocate(), -1);
  EXPECT_EQ(store.payload(0), nullptr);  // accounting mode: no payload
}

// -- prefix cache ----------------------------------------------------------

PrefixCacheConfig small_cache_config() {
  PrefixCacheConfig config;
  config.block_tokens = 4;
  config.hidden = 2;
  config.num_layers = 1;
  config.materialize = true;
  return config;
}

/// Fills a block so every float encodes its absolute token offset.
PrefixCache::BlockWriter offset_writer(const PrefixCacheConfig& config) {
  return [config](std::int64_t token_offset, float* payload) {
    for (std::size_t i = 0; i < config.payload_floats(); ++i) {
      payload[i] = static_cast<float>(token_offset);
    }
  };
}

TEST(PrefixCache, MatchIsCappedBelowThePromptLength) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);
  cache.insert(seq(8), offset_writer(config));

  // A fully cached prompt still leaves one token to prefill.
  const auto full = cache.match(seq(8));
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->matched_tokens(), 4);
  // A longer prompt uses the whole cached chain.
  const auto longer = cache.match(seq(12));
  ASSERT_NE(longer, nullptr);
  EXPECT_EQ(longer->matched_tokens(), 8);
  EXPECT_EQ(cache.match(seq(3)), nullptr);  // shorter than one block
}

TEST(PrefixCache, PinnedChainsSurvivePressureAndBytesStayExact) {
  const auto block_bytes = small_cache_config().block_bytes();
  MemoryPool pool("host", 3 * block_bytes);  // room for three blocks
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);

  auto pinned = cache.insert(seq(8, 1000), offset_writer(config));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->blocks(), 2u);
  EXPECT_EQ(pool.used(), 2 * block_bytes);

  // Third block fits; the next insert must evict — but both candidates are
  // pinned, so the chain is cut short rather than evicting pinned blocks.
  auto overflow = cache.insert(seq(8, 2000), offset_writer(config));
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->blocks(), 1u);
  EXPECT_EQ(pool.used(), 3 * block_bytes);
  ASSERT_NE(cache.match(seq(8, 1000)), nullptr);  // pinned chain intact

  // Release the pins: pressure can now evict, and bytes return exactly.
  pinned.reset();
  overflow.reset();
  auto fresh = cache.insert(seq(12, 3000), offset_writer(config));
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->blocks(), 3u);
  EXPECT_EQ(pool.used(), 3 * block_bytes);
  EXPECT_EQ(cache.match(seq(8, 1000)), nullptr);  // old chain evicted

  fresh.reset();
  EXPECT_EQ(cache.evict(100), 3u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(cache.node_count(), 0u);
}

TEST(PrefixCache, PoolDenialEvictsOrCutsTheChainGracefully) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);

  // Denied with nothing to evict: the insert yields nothing, no error.
  {
    util::ScopedFaultInjection chaos(7);
    util::FaultSpec spec;
    spec.alloc_failures = 1;  // deny exactly one block charge
    chaos.arm("pool.host.charge", spec);
    EXPECT_EQ(cache.insert(seq(12), offset_writer(config)), nullptr);
  }

  // With unpinned content cached, a denial evicts an LRU leaf and retries.
  cache.insert(seq(8, 900), offset_writer(config));
  {
    util::ScopedFaultInjection chaos(8);
    util::FaultSpec spec;
    spec.alloc_failures = 1;
    chaos.arm("pool.host.charge", spec);
    const auto lease = cache.insert(seq(12), offset_writer(config));
    ASSERT_NE(lease, nullptr);
    EXPECT_EQ(lease->blocks(), 3u);
  }
  // The victim came out of the earlier chain.
  EXPECT_EQ(cache.node_count(), 4u);
}

TEST(PrefixCache, MatchedPlanesHoldTheInsertedValues) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);
  cache.insert(seq(8), offset_writer(config));
  const auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  ASSERT_EQ(lease->blocks(), 2u);
  EXPECT_FLOAT_EQ(lease->k_plane(0, 0)[0], 0.0f);
  EXPECT_FLOAT_EQ(lease->v_plane(1, 0)[0], 4.0f);
}

// -- borrowed KV blocks (copy-on-write) ------------------------------------

TEST(BorrowedKV, CowTruncateNeverTouchesSharedBlocks) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);
  cache.insert(seq(8), offset_writer(config));
  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  const float* shared_plane = lease->k_plane(1, 0);

  runtime::KVCache a(2, 16, 2, pool, config.block_tokens);
  a.borrow(lease, 0, 8);
  EXPECT_EQ(a.stored_bytes(), 0u);  // borrowed rows are the prefix cache's
  a.append(Tensor::full({2}, 100.0f), Tensor::full({2}, -100.0f));
  a.append(Tensor::full({2}, 101.0f), Tensor::full({2}, -101.0f));
  ASSERT_EQ(a.length(), 10);

  // Fork, then truncate the original into the shared region (CoW).
  auto fork = a.clone();
  a.truncate(6);
  EXPECT_EQ(a.length(), 6);
  EXPECT_EQ(a.borrowed_rows(), 4);  // kept whole blocks only
  EXPECT_EQ(a.stored_bytes(), 2 * 2 * 2 * sizeof(float));  // 2 copied rows

  // The fork still sees every original row…
  EXPECT_EQ(fork.length(), 10);
  EXPECT_EQ(fork.borrowed_rows(), 8);
  EXPECT_FLOAT_EQ(fork.keys().at({9, 0}), 101.0f);
  EXPECT_FLOAT_EQ(fork.keys().at({5, 0}), 4.0f);
  // …the truncated cache re-reads its surviving rows bit-exactly…
  EXPECT_FLOAT_EQ(a.keys().at({5, 0}), 4.0f);
  EXPECT_FLOAT_EQ(a.values().at({5, 0}), 4.0f);
  // …and the shared payload itself was never written.
  EXPECT_FLOAT_EQ(shared_plane[0], 4.0f);

  // Appending after the CoW diverges the two caches independently.
  a.append(Tensor::full({2}, 500.0f), Tensor::full({2}, -500.0f));
  EXPECT_FLOAT_EQ(a.keys().at({6, 0}), 500.0f);
  EXPECT_FLOAT_EQ(fork.keys().at({6, 0}), 4.0f);  // still the shared row
  EXPECT_FLOAT_EQ(fork.keys().at({8, 0}), 100.0f);
}

TEST(BorrowedKV, TruncateToZeroDropsTheLeaseAndAllPoolBytes) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);
  cache.insert(seq(8), offset_writer(config));
  const auto cached_bytes = pool.used();

  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  {
    runtime::KVCache a(2, 16, 2, pool, config.block_tokens);
    a.borrow(std::move(lease), 0, 8);
    EXPECT_EQ(cache.pinned_leases(), 1u);
    a.append(Tensor::full({2}, 1.0f), Tensor::full({2}, 2.0f));
    EXPECT_GT(a.stored_bytes(), 0u);
    a.truncate(0);
    EXPECT_EQ(a.length(), 0);
    EXPECT_EQ(a.stored_bytes(), 0u);
    EXPECT_EQ(cache.pinned_leases(), 0u);  // the chain is unpinned
    EXPECT_EQ(pool.used(), cached_bytes);  // private bytes all returned
    a.append(Tensor::full({2}, 3.0f), Tensor::full({2}, 4.0f));
    EXPECT_FLOAT_EQ(a.keys().at({0, 0}), 3.0f);
  }
  EXPECT_EQ(pool.used(), cached_bytes);  // destructor exact too
}

TEST(BorrowedKV, RejectsMismatchedBlocksAndQuantizedCaches) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  PrefixCache cache(config, &pool, nullptr);
  cache.insert(seq(8), offset_writer(config));
  auto lease = cache.match(seq(12));
  ASSERT_NE(lease, nullptr);
  runtime::KVCache other_blocks(2, 16, 2, pool, config.block_tokens * 2);
  EXPECT_THROW(other_blocks.borrow(lease, 0, 8), util::CheckError);
  runtime::KVCache quantized(2, 8, 2, pool, config.block_tokens);
  EXPECT_THROW(quantized.borrow(lease, 0, 8), util::CheckError);
  runtime::KVCache partial(2, 16, 2, pool, config.block_tokens);
  EXPECT_THROW(partial.borrow(lease, 0, 6), util::CheckError);  // not whole
}

// -- pool-accounting property: every cache shape returns to baseline --------

TEST(KVPoolAccounting, CloneDestroyAndTruncateToZeroReturnToBaseline) {
  util::Xoshiro256 rng(11);
  const std::int64_t hidden = 8;
  for (const char* shape : {"f32", "kv4", "window", "borrowed"}) {
    SCOPED_TRACE(shape);
    const std::string name = shape;
    MemoryPool pool("host", 1 << 20);
    std::unique_ptr<PrefixCache> prefix;
    const int bits = name == "kv4" ? 4 : 16;
    const std::int64_t window = name == "window" ? 6 : 0;
    auto cache = std::make_unique<runtime::KVCache>(hidden, bits, 8, pool,
                                                    /*block_tokens=*/4, window);
    if (name == "borrowed") {
      PrefixCacheConfig config;
      config.block_tokens = 4;
      config.hidden = hidden;
      config.num_layers = 1;
      prefix = std::make_unique<PrefixCache>(config, &pool, nullptr);
      prefix->insert(seq(8), [&](std::int64_t, float* payload) {
        for (std::size_t i = 0; i < config.payload_floats(); ++i) {
          payload[i] = 0.5f;
        }
      });
      cache->borrow(prefix->match(seq(12)), 0, 8);
    }
    const auto empty_bytes = pool.used();

    for (int i = 0; i < 10; ++i) {
      cache->append(Tensor::uniform({hidden}, rng),
                    Tensor::uniform({hidden}, rng));
    }
    const auto filled_bytes = pool.used();

    // clone + destroy-the-clone is byte-neutral.
    {
      const auto copy = cache->clone();
      EXPECT_GE(pool.used(), filled_bytes);
    }
    EXPECT_EQ(pool.used(), filled_bytes);

    // truncate-to-zero returns every private byte; nothing is reserved at
    // construction, so that is the empty baseline.
    cache->truncate(0);
    EXPECT_EQ(pool.used(), empty_bytes);

    cache.reset();
    prefix.reset();
    EXPECT_EQ(pool.used(), 0u);
  }
}

// -- shared-prefix workload (satellite) ------------------------------------

TEST(SharedPrefixWorkload, DeterministicAndTemplateStructured) {
  serve::SharedPrefixProfile profile;
  profile.num_templates = 3;
  profile.template_tokens = 16;
  const auto a = serve::generate_shared_prefix_requests(profile, 40, 7);
  const auto b = serve::generate_shared_prefix_requests(profile, 40, 7);
  ASSERT_EQ(a.size(), 40u);

  std::set<std::vector<std::int64_t>> prefixes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);  // same seed, same run
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].prompt_len,
              static_cast<std::int64_t>(a[i].prompt_tokens.size()));
    EXPECT_GT(a[i].prompt_len, profile.template_tokens);
    prefixes.insert({a[i].prompt_tokens.begin(),
                     a[i].prompt_tokens.begin() + profile.template_tokens});
  }
  EXPECT_LE(prefixes.size(), 3u);  // every prompt starts with a template
  EXPECT_GT(prefixes.size(), 1u);

  const auto other = serve::generate_shared_prefix_requests(profile, 40, 8);
  EXPECT_NE(other[0].prompt_tokens, a[0].prompt_tokens);
}

// -- serving simulator integration -----------------------------------------

TEST(ServeSim, PrefixShareCutsPrefilledTokensAndSwappedBytes) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto platform = hw::Platform::a100_single();
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;

  serve::SharedPrefixProfile profile;
  profile.base.arrival_rate = 8.0;
  profile.num_templates = 3;
  profile.template_tokens = 96;
  const auto requests =
      serve::generate_shared_prefix_requests(profile, 60, 42);

  serve::ServeConfig config;
  config.max_batch = 8;
  config.prefill_chunk = 32;
  config.preempt = true;
  config.preempt_wait_seconds = 0.5;

  config.prefix_share = false;
  const auto off =
      serve::simulate_serving(spec, policy, platform, requests, config);
  config.prefix_share = true;
  config.kv_block_tokens = 16;
  const auto on =
      serve::simulate_serving(spec, policy, platform, requests, config);

  // Same requests complete either way; sharing only removes work.
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_GT(on.prefix_hit_tokens, 0u);
  EXPECT_GT(on.prefix_bytes_saved, 0.0);
  EXPECT_LT(on.prefill_tokens, off.prefill_tokens);  // strictly fewer
  ASSERT_GT(off.preemptions, 0u);
  EXPECT_LT(on.kv_swap_bytes, off.kv_swap_bytes);  // only private tails move
  EXPECT_LE(on.ttft_p50, off.ttft_p50);
  EXPECT_EQ(off.prefix_hit_tokens, 0u);  // OFF records nothing

  // Sharing is deterministic: the same run replays to identical metrics.
  const auto replay =
      serve::simulate_serving(spec, policy, platform, requests, config);
  EXPECT_EQ(replay.prefill_tokens, on.prefill_tokens);
  EXPECT_EQ(replay.prefix_hit_tokens, on.prefix_hit_tokens);
  EXPECT_EQ(replay.duration, on.duration);
}

// -- generator end-to-end ---------------------------------------------------

runtime::RuntimeConfig tiny_share_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 2, 64);
  config.weight_bits = 8;
  config.quant_group = 16;
  config.device_layers = 0;
  config.prefetch_threads = 0;
  return config;
}

std::vector<std::vector<std::int64_t>> shared_prompts(std::int64_t stem_len,
                                                      std::int64_t salt) {
  std::vector<std::int64_t> stem;
  for (std::int64_t t = 0; t < stem_len; ++t) {
    stem.push_back(1 + (t * 5) % 48);
  }
  std::vector<std::vector<std::int64_t>> prompts;
  for (std::int64_t s = 0; s < 2; ++s) {
    auto p = stem;
    p.push_back(50 + salt + s);
    p.push_back(51 + salt);
    prompts.push_back(std::move(p));
  }
  return prompts;
}

TEST(GeneratorPrefixShare, TokensAreByteIdenticalToSharingOff) {
  const auto batch_a = shared_prompts(16, 0);
  const auto batch_b = shared_prompts(16, 7);

  auto config = tiny_share_config();
  runtime::Generator off(config);
  const auto off_a = off.generate(batch_a, 8).tokens;
  const auto off_b = off.generate(batch_b, 8).tokens;

  config.prefix_share = true;
  config.kv_block_tokens = 4;
  runtime::Generator on(config);
  const auto on_a = on.generate(batch_a, 8).tokens;
  const auto on_b = on.generate(batch_b, 8).tokens;

  EXPECT_EQ(on_a, off_a);
  EXPECT_EQ(on_b, off_b);  // batch B decoded over reused prefix KV

  const auto snap = on.manager().metrics().snapshot();
  ASSERT_NE(snap.find("kvshare.hit_tokens"), nullptr);
  EXPECT_GT(snap.counter("kvshare.hit_tokens"), 0u);
  EXPECT_GT(snap.counter("kvshare.bytes_saved"), 0u);
}

TEST(GeneratorPrefixShare, RequiresUnwindowedF32KV) {
  auto config = tiny_share_config();
  config.prefix_share = true;
  config.window_tokens = 8;
  EXPECT_THROW(runtime::Generator{config}, util::CheckError);
  config.window_tokens = 0;
  config.kv_bits = 4;
  EXPECT_THROW(runtime::Generator{config}, util::CheckError);
}

TEST(GeneratorPrefixShare, CheckpointKillResumeStaysBitExact) {
  TempFile file("kvshare_kill_resume.ckpt");
  auto config = tiny_share_config();
  config.prefix_share = true;
  config.kv_block_tokens = 4;
  const auto warm = shared_prompts(16, 0);
  const auto prompts = shared_prompts(16, 7);
  const std::int64_t gen_len = 8;

  // Reference: warm the cache, then one uninterrupted generation.
  std::vector<std::vector<std::int64_t>> reference;
  {
    runtime::Generator gen(config);
    gen.generate(warm, 4);
    reference = gen.generate(prompts, gen_len).tokens;
  }

  // Crash mid-decode of the second (prefix-reusing) batch…
  {
    runtime::Generator gen(config);
    gen.generate(warm, 4);
    gen.begin(prompts, gen_len);
    while (gen.step_index() < gen_len / 2 && !gen.done()) gen.step();
    gen.snapshot(file.path);
  }
  // …and resume in a fresh process-equivalent (cold prefix cache: the
  // checkpoint materializes shared chains losslessly, so no warmup run).
  {
    runtime::Generator gen(config);
    gen.resume(file.path);
    while (!gen.done()) gen.step();
    EXPECT_EQ(gen.finish().tokens, reference);
  }
}

// -- concurrency (exercised under TSan in CI) -------------------------------

TEST(PrefixCacheConcurrency, ParallelMatchInsertEvictStaysConsistent) {
  MemoryPool pool("host", 1 << 22);
  PrefixCacheConfig config;
  config.block_tokens = 4;
  config.hidden = 4;
  config.num_layers = 1;
  PrefixCache cache(config, &pool, nullptr);

  std::atomic<bool> failed{false};
  const auto worker = [&](std::int64_t base) {
    for (int i = 0; i < 200 && !failed.load(); ++i) {
      const auto tokens = seq(8 + (i % 3) * 4, base + (i % 5) * 1000);
      auto lease =
          cache.insert(tokens, [&](std::int64_t offset, float* payload) {
            for (std::size_t f = 0; f < config.payload_floats(); ++f) {
              payload[f] = static_cast<float>(offset);
            }
          });
      auto match = cache.match(tokens);
      if (match != nullptr && match->blocks() > 0) {
        // Pinned planes stay readable and hold what the writer stored.
        if (match->k_plane(0, 0)[0] != 0.0f) failed.store(true);
      }
      if (i % 16 == 0) cache.evict(1);
    }
  };
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t * 100);
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  cache.evict(1u << 20);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);  // refcounts balanced across all threads
}

// -- integrity quarantine --------------------------------------------------

TEST(PrefixCacheIntegrity, CorruptBlockIsQuarantinedAndExcludedFromMatch) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(config, &pool, &metrics, &registry);

  cache.insert(seq(12), offset_writer(config));
  ASSERT_NE(cache.match(seq(12)), nullptr);  // clean chain matches
  ASSERT_EQ(cache.blocks_in_use(), 3u);

  {
    util::ScopedFaultInjection chaos(1);
    util::FaultSpec spec;
    spec.flip_probability = 1.0;  // the first verified block rots at rest
    chaos.arm("integrity.kvshare.flip", spec);
    // The match truncates at the corrupt root block: a total miss.
    EXPECT_EQ(cache.match(seq(12)), nullptr);
  }
  // Nothing pinned the subtree, so quarantine freed it immediately.
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(metrics.counter("integrity.repair.quarantine").value(), 1u);
  EXPECT_EQ(metrics.counter("integrity.quarantine.blocks").value(), 3u);
  EXPECT_GE(metrics.counter("integrity.verify.failures").value(), 1u);

  // The quarantined prefix stays unmatchable; a fresh insert of the same
  // tokens rebuilds clean blocks that match again.
  EXPECT_EQ(cache.match(seq(12)), nullptr);
  cache.insert(seq(12), offset_writer(config));
  EXPECT_NE(cache.match(seq(12)), nullptr);
}

TEST(PrefixCacheIntegrity, LiveLeaseDefersQuarantineFreeUntilRelease) {
  MemoryPool pool("host", 1 << 20);
  const auto config = small_cache_config();
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(config, &pool, &metrics, &registry);

  cache.insert(seq(12), offset_writer(config));
  auto lease = cache.match(seq(12));  // pins the chain before the rot
  ASSERT_NE(lease, nullptr);
  const float* plane = lease->k_plane(0, 0);
  ASSERT_NE(plane, nullptr);

  {
    util::ScopedFaultInjection chaos(1);
    util::FaultSpec spec;
    spec.flip_probability = 1.0;
    chaos.arm("integrity.kvshare.flip", spec);
    EXPECT_EQ(cache.match(seq(12)), nullptr);
  }
  // The subtree is detached from matching but the live lease still pins
  // it: its payload pointers stay mapped (ASan guards this read).
  EXPECT_EQ(cache.quarantined_blocks(), 3u);
  EXPECT_EQ(cache.pinned_leases(), 1u);
  volatile float still_mapped = plane[0];
  (void)still_mapped;

  lease.reset();  // the aborted request drops its pin
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  EXPECT_EQ(cache.pinned_leases(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(metrics.gauge("kvshare.pinned").value(), 0.0);
}

TEST(PrefixCacheIntegrity, AbortStormUnderConcurrentChaosLeaksNothing) {
  MemoryPool pool("host", 1 << 22);
  PrefixCacheConfig config;
  config.block_tokens = 4;
  config.hidden = 4;
  config.num_layers = 1;
  integrity::IntegrityConfig iconfig;
  iconfig.policy = integrity::VerifyPolicy::kAlways;
  telemetry::MetricsRegistry metrics;
  integrity::ChecksumRegistry registry(iconfig, &metrics);
  PrefixCache cache(config, &pool, &metrics, &registry);

  util::ScopedFaultInjection chaos(17);
  util::FaultSpec spec;
  spec.flip_probability = 0.02;  // occasional at-rest rot mid-storm
  chaos.arm("integrity.kvshare.flip", spec);

  const auto worker = [&](std::int64_t base) {
    for (int i = 0; i < 150; ++i) {
      const auto tokens = seq(8 + (i % 3) * 4, base + (i % 5) * 1000);
      auto inserted =
          cache.insert(tokens, [&](std::int64_t offset, float* payload) {
            for (std::size_t f = 0; f < config.payload_floats(); ++f) {
              payload[f] = static_cast<float>(offset);
            }
          });
      auto matched = cache.match(tokens);
      if (i % 16 == 0) cache.evict(1);
      // Aborted request: both leases drop unconsumed at scope end.
    }
  };
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t * 100);
  }
  for (auto& t : threads) t.join();

  // Every abort released its pin and reaped its quarantines: the pinned
  // gauge and the quarantine backlog both return to zero, and the pool
  // balances once the surviving clean blocks are evicted.
  EXPECT_EQ(cache.pinned_leases(), 0u);
  EXPECT_EQ(metrics.gauge("kvshare.pinned").value(), 0.0);
  EXPECT_EQ(cache.quarantined_blocks(), 0u);
  cache.evict(1u << 20);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_GT(metrics.counter("integrity.repair.quarantine").value(), 0u);
}

}  // namespace
}  // namespace lmo::kvshare
