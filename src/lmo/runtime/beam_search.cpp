#include "lmo/runtime/beam_search.hpp"

#include <algorithm>
#include <cmath>

#include "lmo/runtime/evaluate.hpp"  // token_log_prob
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

struct Beam {
  SequenceCache cache;
  std::vector<std::int64_t> tokens;  ///< generated so far
  std::int64_t last_token = -1;      ///< next input (prompt tail or newest)
  double log_prob = 0.0;
};

SequenceCache clone_cache(const SequenceCache& cache) {
  SequenceCache copy;
  copy.reserve(cache.size());
  for (const KVCache& layer : cache) copy.push_back(layer.clone());
  return copy;
}

/// Top `k` token ids of rank-1 logits by value.
std::vector<std::int64_t> top_tokens(const tensor::Tensor& logits, int k) {
  auto p = logits.f32();
  std::vector<std::int64_t> ids(p.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  const auto count = std::min<std::size_t>(static_cast<std::size_t>(k),
                                           ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(
                                     count),
                    ids.end(), [&](std::int64_t a, std::int64_t b) {
                      return p[static_cast<std::size_t>(a)] >
                             p[static_cast<std::size_t>(b)];
                    });
  ids.resize(count);
  return ids;
}

}  // namespace

void BeamSearchConfig::validate() const {
  LMO_CHECK_GE(beam_width, 1);
  LMO_CHECK_GE(expansions_per_beam, 0);
}

BeamSearchResult beam_search(Generator& generator,
                             const std::vector<std::int64_t>& prompt,
                             std::int64_t gen_len,
                             const BeamSearchConfig& config) {
  config.validate();
  LMO_CHECK(!prompt.empty());
  LMO_CHECK_GT(gen_len, 0);
  const int expansions = config.expansions_per_beam > 0
                             ? config.expansions_per_beam
                             : config.beam_width;

  auto& transformer = generator.transformer();
  const auto forward_one = [&](Beam& beam,
                               const std::vector<std::int64_t>& input) {
    std::vector<tensor::Tensor> states = {transformer.embed(input)};
    std::vector<SequenceCache*> caches = {&beam.cache};
    transformer.forward(states, caches);
    return transformer.logits(states[0]);
  };

  // Root beam: prefill the prompt once.
  std::vector<Beam> beams(1);
  beams[0].cache = transformer.make_cache(generator.config().kv_bits,
                                          generator.config().quant_group,
                                          generator.host_pool());
  tensor::Tensor logits = forward_one(beams[0], prompt);

  for (std::int64_t t = 0; t < gen_len; ++t) {
    // Expand every beam with its top candidates.
    struct Candidate {
      std::size_t beam_index;
      std::int64_t token;
      double log_prob;
    };
    std::vector<Candidate> candidates;
    std::vector<tensor::Tensor> beam_logits;
    beam_logits.reserve(beams.size());
    for (std::size_t b = 0; b < beams.size(); ++b) {
      // Root step reuses the prefill logits; later steps forward the
      // newest token.
      if (t == 0 && b == 0) {
        beam_logits.push_back(logits);
      } else {
        beam_logits.push_back(
            forward_one(beams[b], {beams[b].last_token}));
      }
      for (std::int64_t token : top_tokens(beam_logits[b], expansions)) {
        candidates.push_back(
            {b, token,
             beams[b].log_prob + token_log_prob(beam_logits[b], token)});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.log_prob > b.log_prob;
              });
    candidates.resize(std::min<std::size_t>(
        candidates.size(), static_cast<std::size_t>(config.beam_width)));

    // Build the next beam set, cloning caches when a parent forks.
    std::vector<int> uses(beams.size(), 0);
    for (const Candidate& c : candidates) {
      ++uses[c.beam_index];
    }
    std::vector<Beam> next;
    next.reserve(candidates.size());
    for (const Candidate& c : candidates) {
      Beam child;
      if (--uses[c.beam_index] == 0) {
        child.cache = std::move(beams[c.beam_index].cache);  // last user
      } else {
        child.cache = clone_cache(beams[c.beam_index].cache);
      }
      child.tokens = beams[c.beam_index].tokens;
      child.tokens.push_back(c.token);
      child.last_token = c.token;
      child.log_prob = c.log_prob;
      next.push_back(std::move(child));
    }
    beams = std::move(next);
  }

  BeamSearchResult result;
  result.beams.reserve(beams.size());
  std::sort(beams.begin(), beams.end(), [](const Beam& a, const Beam& b) {
    return a.log_prob > b.log_prob;
  });
  for (const Beam& beam : beams) {
    result.beams.push_back({beam.tokens, beam.log_prob});
  }
  return result;
}

}  // namespace lmo::runtime
