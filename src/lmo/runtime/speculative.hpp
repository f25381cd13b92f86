// Speculative decoding (the related-work direction the paper cites via
// SpecInfer): a small draft model proposes blocks of tokens, the target
// model verifies a whole block in one forward pass, and rejected suffixes
// are rolled back with KVCache::truncate(). The greedy variant here is
// *lossless* — the emitted sequence is bit-identical to the target model
// decoding alone — while the target runs one forward pass per accepted
// block instead of per token.
#pragma once

#include <cstdint>
#include <vector>

#include "lmo/runtime/generator.hpp"

namespace lmo::runtime {

struct SpeculativeConfig {
  int draft_tokens = 4;  ///< proposal block size (k)

  void validate() const;
};

struct SpeculativeResult {
  std::vector<std::int64_t> tokens;      ///< the generated sequence
  std::int64_t draft_proposed = 0;       ///< draft tokens offered
  std::int64_t draft_accepted = 0;       ///< ... accepted by the target
  std::int64_t target_forward_passes = 0;  ///< verify passes (excl. prefill)

  double acceptance_rate() const {
    return draft_proposed > 0
               ? static_cast<double>(draft_accepted) /
                     static_cast<double>(draft_proposed)
               : 0.0;
  }
};

/// Generate `gen_len` tokens for `prompt` with the draft/target pair.
/// Both generators must share the vocabulary; decoding is greedy
/// regardless of their sampling configs (losslessness requires it).
SpeculativeResult speculative_generate(Generator& target, Generator& draft,
                                       const std::vector<std::int64_t>&
                                           prompt,
                                       std::int64_t gen_len,
                                       const SpeculativeConfig& config = {});

}  // namespace lmo::runtime
