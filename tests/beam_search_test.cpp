// Tests for beam-search decoding (and cache clone(), its substrate).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "lmo/runtime/beam_search.hpp"
#include "lmo/runtime/evaluate.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;

RuntimeConfig tiny_config(std::uint64_t seed = 42) {
  RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.prefetch_threads = 0;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------------ clone --

TEST(CacheClone, ContiguousDeepCopyChargesPool) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache(8, 16, 8, pool);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 5; ++i) {
    cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  }
  const auto used_before = pool.used();
  auto copy = cache.clone();
  EXPECT_EQ(pool.used(), 2 * used_before);  // duplicate residency charged
  EXPECT_EQ(copy.length(), cache.length());
  EXPECT_EQ(copy.keys().max_abs_diff(cache.keys()), 0.0f);
  // Diverge the copy; the original is untouched.
  copy.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  EXPECT_EQ(cache.length(), 5);
  EXPECT_EQ(copy.length(), 6);
}

TEST(CacheClone, SmallBlockCopyIsIndependent) {
  MemoryPool pool("h", 1 << 20);
  KVCache cache(8, 16, 8, pool, /*block_tokens=*/4);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 6; ++i) {
    cache.append(Tensor::uniform({8}, rng), Tensor::uniform({8}, rng));
  }
  const auto used = pool.used();
  auto copy = cache.clone();
  EXPECT_EQ(pool.used(), 2 * used);
  EXPECT_EQ(copy.keys().max_abs_diff(cache.keys()), 0.0f);
  copy.truncate(0);
  EXPECT_EQ(pool.used(), used);  // original intact
  EXPECT_EQ(cache.length(), 6);
  EXPECT_EQ(cache.blocks(), 2u);
}

// ------------------------------------------------------------ beam search --

TEST(BeamSearch, WidthOneIsExactlyGreedy) {
  const std::vector<std::int64_t> prompt = {5, 9, 2, 7};
  Generator greedy_gen(tiny_config());
  const auto greedy = greedy_gen.generate({prompt}, 12).tokens[0];

  Generator beam_gen(tiny_config());
  const auto result =
      beam_search(beam_gen, prompt, 12, BeamSearchConfig{1, 0});
  ASSERT_EQ(result.beams.size(), 1u);
  EXPECT_EQ(result.best().tokens, greedy);
}

TEST(BeamSearch, WiderBeamNeverScoresWorse) {
  const std::vector<std::int64_t> prompt = {3, 1, 4, 1, 5};
  Generator g1(tiny_config(7));
  const double greedy_lp =
      beam_search(g1, prompt, 10, BeamSearchConfig{1, 0}).best().log_prob;
  Generator g4(tiny_config(7));
  const double beam_lp =
      beam_search(g4, prompt, 10, BeamSearchConfig{4, 4}).best().log_prob;
  EXPECT_GE(beam_lp, greedy_lp - 1e-9);
}

TEST(BeamSearch, ScoresMatchTeacherForcedNll) {
  // The beam's cumulative log-prob must equal the independently computed
  // teacher-forced log-likelihood of its sequence.
  const std::vector<std::int64_t> prompt = {8, 6, 4, 2};
  Generator g(tiny_config(11));
  const auto result = beam_search(g, prompt, 8, BeamSearchConfig{3, 3});

  Generator scorer(tiny_config(11));
  std::vector<std::int64_t> full = prompt;
  full.insert(full.end(), result.best().tokens.begin(),
              result.best().tokens.end());
  const auto eval = evaluate_sequence(
      scorer, full, static_cast<std::int64_t>(prompt.size()));
  EXPECT_NEAR(-result.best().log_prob, eval.nll, 1e-3);
}

TEST(BeamSearch, ReturnsSortedDistinctHypotheses) {
  Generator g(tiny_config(13));
  const auto result =
      beam_search(g, {1, 2, 3}, 6, BeamSearchConfig{4, 4});
  ASSERT_EQ(result.beams.size(), 4u);
  std::set<std::vector<std::int64_t>> unique;
  for (std::size_t i = 0; i < result.beams.size(); ++i) {
    EXPECT_EQ(result.beams[i].tokens.size(), 6u);
    if (i > 0) {
      EXPECT_LE(result.beams[i].log_prob, result.beams[i - 1].log_prob);
    }
    unique.insert(result.beams[i].tokens);
  }
  EXPECT_EQ(unique.size(), result.beams.size());
}

TEST(BeamSearch, ValidatesInputs) {
  Generator g(tiny_config());
  EXPECT_THROW(beam_search(g, {}, 4), CheckError);
  EXPECT_THROW(beam_search(g, {1}, 0), CheckError);
  EXPECT_THROW(beam_search(g, {1}, 4, BeamSearchConfig{0, 0}), CheckError);
}

}  // namespace
}  // namespace lmo::runtime
