#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {
namespace {

using lmo::model::ModelSpec;
using lmo::runtime::RuntimeConfig;

constexpr std::int64_t kSharedPrefixes = 8;
constexpr std::int64_t kPrefixTokens = 192;
constexpr std::int64_t kSuffixMin = 16;
constexpr std::int64_t kSuffixMax = 48;

Workload offload_stream() {
  Workload w;
  w.kind = Kind::kOffloadStream;
  w.name = "offload-stream";
  RuntimeConfig& c = w.config;
  c.spec = ModelSpec::tiny(8, 192, 8, 4096);
  c.weight_bits = 4;
  c.quant_group = 64;
  c.kv_bits = 16;
  c.device_layers = 0;
  c.disk_layers = 2;
  c.disk_capacity = 64u << 20;
  c.prefetch_threads = 2;
  c.compute_threads = 0;
  w.reference = c;
  w.reference.prefetch_threads = 0;
  w.reference.disk_layers = 0;
  w.reference.disk_capacity = 0;
  w.reference_label = "prefetch_threads=0, disk_layers=0";
  w.batch = 2;
  w.gen_len = 16;
  w.nll_margin = 0.01;  // w4 weights
  w.notes = {
      "prefetch overlaps dequantize with compute: a faster worker-side "
      "dequantize lowers tpot_ms by at most the main-row wait, "
      "generator.decode_self_ms_per_step + "
      "offload.load_weight_main_ms_per_step + store.read_main_ms_per_step"};
  return w;
}

Workload long_context() {
  Workload w;
  w.kind = Kind::kLongContext;
  w.name = "long-context";
  RuntimeConfig& c = w.config;
  c.spec = ModelSpec::tiny(4, 128, 8, 4096);
  c.device_layers = 4;
  c.kv_bits = 4;
  c.quant_group = 64;
  c.prefetch_threads = 0;
  c.compute_threads = 2;
  w.reference = c;
  w.reference.compute_threads = 0;
  w.reference_label = "compute_threads=0";
  w.batch = 2;
  w.gen_len = 16;
  w.nll_margin = 0.001;  // kv4 cache
  w.notes = {
      "kv.load_cache_ms_per_step grows with context; it, "
      "transformer.compute_ms_per_step and generator.sample_ms_per_step "
      "make up the step",
      "the same tensor quantize/dequantize kernels run on large weight "
      "tensors in offload-stream and on single KV rows here: a kernel tuned "
      "for one shape that slows the other shows in both"};
  return w;
}

Workload shared_prefix() {
  Workload w;
  w.kind = Kind::kSharedPrefix;
  w.name = "shared-prefix";
  RuntimeConfig& c = w.config;
  c.spec = ModelSpec::tiny(4, 128, 8, 4096);
  c.device_layers = 4;
  c.kv_bits = 16;
  c.prefix_share = true;
  c.kv_block_tokens = 16;
  c.prefetch_threads = 0;
  c.compute_threads = 0;
  // A bounded host pool makes the prefix cache reach a steady state
  // (LRU eviction under pool pressure) instead of growing with the
  // number of sessions a run happens to fit.
  c.host_capacity = 24u << 20;
  w.reference = c;
  w.reference.prefix_share = false;
  w.reference_label = "prefix_share=false";
  w.batch = 4;
  w.gen_len = 8;
  w.nll_margin = 0.0;  // f32 weights and KV: the same arithmetic
  w.notes = {
      "long-context is the unshared control: it bypasses kvshare, so a "
      "prefix-cache change should leave it unchanged"};
  return w;
}

}  // namespace

Workload make_workload(const std::string& name) {
  if (name == "offload-stream") return offload_stream();
  if (name == "long-context") return long_context();
  if (name == "shared-prefix") return shared_prefix();
  throw std::invalid_argument("unknown workload: " + name);
}

RuntimeConfig f32_reference(const Workload& w) {
  RuntimeConfig c;
  c.spec = w.config.spec;
  c.seed = w.config.seed;
  c.device_layers = c.spec.num_layers;
  c.weight_bits = 16;
  c.kv_bits = 16;
  c.prefetch_threads = 0;
  c.compute_threads = 0;
  return c;
}

PromptSource::PromptSource(const Workload& workload, std::uint64_t seed)
    : workload_(workload), rng_(seed) {
  if (workload_.kind != Kind::kSharedPrefix) return;
  // Zipf-like popularity: prefix k is drawn with weight 1 / (k + 1).
  double total = 0.0;
  for (std::int64_t k = 0; k < kSharedPrefixes; ++k) {
    prefixes_.push_back(random_tokens(kPrefixTokens));
    total += 1.0 / static_cast<double>(k + 1);
    prefix_cdf_.push_back(total);
  }
  for (double& x : prefix_cdf_) x /= total;
}

std::int64_t PromptSource::uniform(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng_() % static_cast<std::uint64_t>(hi - lo + 1));
}

std::vector<std::int64_t> PromptSource::random_tokens(std::int64_t n) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (auto& t : out) t = uniform(0, workload_.config.spec.vocab - 1);
  return out;
}

Prompts PromptSource::unshared() {
  Prompts batch;
  for (std::int64_t s = 0; s < workload_.batch; ++s) {
    switch (workload_.kind) {
      case Kind::kOffloadStream:
        batch.push_back(random_tokens(16));
        break;
      case Kind::kLongContext:
        batch.push_back(random_tokens(uniform(160, 224)));
        break;
      case Kind::kSharedPrefix:
        batch.push_back(
            random_tokens(kPrefixTokens + uniform(kSuffixMin, kSuffixMax)));
        break;
    }
  }
  return batch;
}

Prompts PromptSource::next() {
  if (workload_.kind != Kind::kSharedPrefix) return unshared();
  // One request in four (one per batch of 4, at a seeded position) has no
  // shared prefix; the rest pick a prefix by popularity and append a
  // unique suffix.
  const std::int64_t unshared_slot = uniform(0, workload_.batch - 1);
  Prompts batch;
  for (std::int64_t s = 0; s < workload_.batch; ++s) {
    const std::int64_t suffix = uniform(kSuffixMin, kSuffixMax);
    if (s == unshared_slot) {
      batch.push_back(random_tokens(kPrefixTokens + suffix));
      continue;
    }
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    std::size_t k = 0;
    while (k + 1 < prefix_cdf_.size() && u >= prefix_cdf_[k]) ++k;
    std::vector<std::int64_t> prompt = prefixes_[k];
    const std::vector<std::int64_t> tail = random_tokens(suffix);
    prompt.insert(prompt.end(), tail.begin(), tail.end());
    batch.push_back(std::move(prompt));
  }
  return batch;
}

Prompts eval_corpus(const Workload& workload) {
  std::mt19937_64 rng(7);
  Prompts corpus(4, std::vector<std::int64_t>(48));
  const auto vocab = static_cast<std::uint64_t>(workload.config.spec.vocab);
  for (auto& seq : corpus) {
    for (auto& t : seq) t = static_cast<std::int64_t>(rng() % vocab);
  }
  return corpus;
}

}  // namespace perfbench
