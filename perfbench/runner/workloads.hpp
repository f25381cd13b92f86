// The benchmark's workloads: each is a RuntimeConfig for the timed
// Generator, the mechanism-off config its tokens must match, and a seeded
// prompt source. The seed generates prompts only; model weights keep
// RuntimeConfig::seed. See ../README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "lmo/runtime/generator.hpp"

namespace perfbench {

using Prompts = std::vector<std::vector<std::int64_t>>;

enum class Kind { kOffloadStream, kLongContext, kSharedPrefix };

struct Workload {
  Kind kind;
  std::string name;
  /// Timed Generator. The runner fills spill_path when disk_layers > 0.
  lmo::runtime::RuntimeConfig config;
  /// Mechanism-off config whose tokens the timed sessions must equal
  /// byte for byte (determinism contract).
  lmo::runtime::RuntimeConfig reference;
  std::string reference_label;  ///< what `reference` switches off
  std::int64_t batch = 0;
  std::int64_t gen_len = 0;     ///< tokens per sequence, begin() included
  /// Largest |mean NLL - f32 reference mean NLL|, as a share of the
  /// reference, accepted on the fixed evaluation corpus.
  double nll_margin = 0.0;
  /// What a reader of this workload's figures should keep in mind.
  std::vector<std::string> notes;
};

/// Known names: offload-stream, long-context, shared-prefix. Throws
/// std::invalid_argument on anything else.
Workload make_workload(const std::string& name);

/// Unquantized, device-resident f32 model with the same weights: the NLL
/// reference for `w`.
lmo::runtime::RuntimeConfig f32_reference(const Workload& w);

/// Seeded session prompts. The same (workload, seed) yields the same
/// sequence of batches.
class PromptSource {
 public:
  PromptSource(const Workload& workload, std::uint64_t seed);

  /// The next timed session's batch.
  Prompts next();
  /// A batch of the workload's shape that shares no prefix with any
  /// timed prompt (used for the warm-up session).
  Prompts unshared();

 private:
  std::vector<std::int64_t> random_tokens(std::int64_t n);
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);  ///< [lo, hi]

  const Workload& workload_;
  std::mt19937_64 rng_;
  std::vector<std::vector<std::int64_t>> prefixes_;  ///< shared-prefix only
  std::vector<double> prefix_cdf_;
};

/// Fixed teacher-forcing corpus for the NLL check (independent of the
/// workload seed), and the number of conditioning tokens per sequence.
Prompts eval_corpus(const Workload& workload);
inline constexpr std::int64_t kEvalContext = 8;

}  // namespace perfbench
