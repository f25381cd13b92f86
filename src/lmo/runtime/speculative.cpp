#include "lmo/runtime/speculative.hpp"

#include <algorithm>

#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {
namespace {

/// Single-sequence decoding state over one model: transformer + caches +
/// how many context tokens the caches currently hold.
class Decoder {
 public:
  explicit Decoder(Generator& generator)
      : transformer_(generator.transformer()),
        cache_(transformer_.make_cache(generator.config().kv_bits,
                                       generator.config().quant_group,
                                       generator.host_pool())) {}

  std::int64_t context() const { return context_; }

  /// Feed `tokens` (appending to the cache); returns the hidden states
  /// [tokens.size(), h].
  tensor::Tensor feed(const std::vector<std::int64_t>& tokens) {
    LMO_CHECK(!tokens.empty());
    std::vector<tensor::Tensor> states = {transformer_.embed(tokens)};
    std::vector<SequenceCache*> caches = {&cache_};
    transformer_.forward(states, caches);
    context_ += static_cast<std::int64_t>(tokens.size());
    return states[0];
  }

  /// Target's greedy choice after row `row` of `states` (0-based).
  std::int64_t argmax_at(const tensor::Tensor& states,
                         std::int64_t row) const {
    return tensor::argmax(
        transformer_.logits(tensor::slice_rows(states, 0, row + 1)));
  }

  /// Roll the caches back to `new_context` tokens.
  void rollback(std::int64_t new_context) {
    LMO_CHECK_LE(new_context, context_);
    for (KVCache& layer_cache : cache_) layer_cache.truncate(new_context);
    context_ = new_context;
  }

 private:
  Transformer& transformer_;
  SequenceCache cache_;
  std::int64_t context_ = 0;
};

}  // namespace

void SpeculativeConfig::validate() const { LMO_CHECK_GE(draft_tokens, 1); }

SpeculativeResult speculative_generate(Generator& target, Generator& draft,
                                       const std::vector<std::int64_t>&
                                           prompt,
                                       std::int64_t gen_len,
                                       const SpeculativeConfig& config) {
  config.validate();
  LMO_CHECK(!prompt.empty());
  LMO_CHECK_GT(gen_len, 0);
  LMO_CHECK_EQ(target.config().spec.vocab, draft.config().spec.vocab);

  SpeculativeResult result;
  Decoder target_dec(target);
  Decoder draft_dec(draft);

  // Prefill both models; `pending` is the target's next greedy token.
  std::int64_t pending =
      target_dec.argmax_at(target_dec.feed(prompt),
                           static_cast<std::int64_t>(prompt.size()) - 1);
  (void)draft_dec.feed(prompt);

  while (static_cast<std::int64_t>(result.tokens.size()) < gen_len) {
    // `pending` is exactly what vanilla greedy decoding would emit.
    result.tokens.push_back(pending);
    if (static_cast<std::int64_t>(result.tokens.size()) >= gen_len) break;

    // Draft proposes a block autoregressively, starting from `pending`.
    const std::int64_t want = std::min<std::int64_t>(
        config.draft_tokens,
        gen_len - static_cast<std::int64_t>(result.tokens.size()));
    std::vector<std::int64_t> proposal;
    std::int64_t draft_token = pending;
    for (std::int64_t i = 0; i < want; ++i) {
      const auto states = draft_dec.feed({draft_token});
      draft_token = draft_dec.argmax_at(states, 0);
      proposal.push_back(draft_token);
    }
    result.draft_proposed += static_cast<std::int64_t>(proposal.size());

    // Target verifies the whole block in ONE forward pass over
    // [pending, q1, ..., q_{k-1}]: row i's logits give the target's greedy
    // choice after prefix ...pending q1..qi.
    std::vector<std::int64_t> verify_input = {pending};
    verify_input.insert(verify_input.end(), proposal.begin(),
                        proposal.end() - 1);
    const std::int64_t base_context = target_dec.context();
    const auto states = target_dec.feed(verify_input);
    ++result.target_forward_passes;

    std::int64_t accepted = 0;
    std::int64_t next = target_dec.argmax_at(states, 0);
    while (accepted < static_cast<std::int64_t>(proposal.size()) &&
           proposal[static_cast<std::size_t>(accepted)] == next &&
           static_cast<std::int64_t>(result.tokens.size()) < gen_len) {
      result.tokens.push_back(proposal[static_cast<std::size_t>(accepted)]);
      ++result.draft_accepted;
      ++accepted;
      if (accepted < static_cast<std::int64_t>(verify_input.size())) {
        next = target_dec.argmax_at(states, accepted);
      } else {
        break;
      }
    }

    if (accepted == static_cast<std::int64_t>(verify_input.size())) {
      // Whole block matched: `next` is undefined past the last row — feed
      // the final proposal token to learn the follow-up.
      const auto tail = target_dec.feed({proposal.back()});
      ++result.target_forward_passes;
      pending = target_dec.argmax_at(tail, 0);
    } else {
      // Rejection: the target's cache holds rows for the unaccepted
      // suffix — roll back to the true context (prompt + emitted tokens).
      target_dec.rollback(
          base_context + 1 + accepted);  // +1 for `pending`'s row
      pending = next;
    }

    // Re-sync the draft: its cache holds prompt + everything it fed
    // itself, whose prefix matches the true sequence up to exactly
    // prompt + emitted tokens (the rejected speculation suffix diverges).
    // Roll back to that prefix; the next round's seed feed extends it.
    const std::int64_t need =
        static_cast<std::int64_t>(prompt.size()) +
        static_cast<std::int64_t>(result.tokens.size());
    draft_dec.rollback(std::min(draft_dec.context(), need));
    if (draft_dec.context() < need) {
      std::vector<std::int64_t> missing;
      for (std::int64_t pos = draft_dec.context(); pos < need; ++pos) {
        const std::int64_t in_output =
            pos - static_cast<std::int64_t>(prompt.size());
        missing.push_back(
            in_output >= 0
                ? result.tokens[static_cast<std::size_t>(in_output)]
                : prompt[static_cast<std::size_t>(pos)]);
      }
      (void)draft_dec.feed(missing);
    }
  }

  result.tokens.resize(static_cast<std::size_t>(gen_len));
  return result;
}

}  // namespace lmo::runtime
