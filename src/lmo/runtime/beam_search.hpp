// Beam-search decoding over the real runtime. Each beam keeps its own
// forked KV caches (KVCache::clone()); every step extends each beam
// with its top candidate tokens and keeps the `beam_width` highest
// cumulative-log-probability hypotheses. Width 1 is exactly greedy.
#pragma once

#include <cstdint>
#include <vector>

#include "lmo/runtime/generator.hpp"

namespace lmo::runtime {

struct BeamSearchConfig {
  int beam_width = 4;
  /// Candidate expansions considered per beam per step (≥ beam_width
  /// guarantees no viable hypothesis is missed in practice).
  int expansions_per_beam = 0;  ///< 0 → beam_width

  void validate() const;
};

struct BeamHypothesis {
  std::vector<std::int64_t> tokens;
  double log_prob = 0.0;  ///< cumulative log p of the generated tokens
};

struct BeamSearchResult {
  /// Final hypotheses, best (highest log_prob) first.
  std::vector<BeamHypothesis> beams;

  const BeamHypothesis& best() const { return beams.front(); }
};

/// Decode `gen_len` tokens for `prompt` with beam search.
BeamSearchResult beam_search(Generator& generator,
                             const std::vector<std::int64_t>& prompt,
                             std::int64_t gen_len,
                             const BeamSearchConfig& config = {});

}  // namespace lmo::runtime
