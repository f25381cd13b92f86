// A real (laptop-scale) pre-LayerNorm transformer executed through the
// offloading substrate: every layer's weights are fetched from the
// OffloadManager (possibly dequantized host payloads), the KV cache is a
// real KVCache (possibly compressed at rest), and all math runs in f32 via
// lmo::tensor ops. The walk is layer-outer so one weight fetch serves every
// sequence in the batch — the same amortization the zig-zag block schedule
// exploits.
//
// Simplifications vs production checkpoints (documented in DESIGN.md):
// tied input/output embeddings, no biases, GELU MLP for all presets.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lmo/model/llm_config.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/runtime/kv_cache.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/tensor/tensor.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::runtime {

class Transformer {
 public:
  /// Creates synthetic weights (normal, seeded) and registers them with
  /// `manager`: the first `device_layers` layers live on the device tier,
  /// the last `disk_layers` layers on the disk tier (requires
  /// manager.attach_store()), everything between on the host tier
  /// (streamed on fetch).
  Transformer(const model::ModelSpec& spec, OffloadManager& manager,
              std::int64_t device_layers, std::uint64_t seed,
              std::int64_t disk_layers = 0);

  const model::ModelSpec& spec() const { return spec_; }

  /// Fresh per-sequence caches (`spec.num_layers` of them) with this
  /// model's hidden size, keeping every row.
  SequenceCache make_cache(int kv_bits, std::int64_t group_size,
                           MemoryPool& pool) const;

  /// Embed a token sequence → [T, h].
  tensor::Tensor embed(std::span<const std::int64_t> tokens);

  /// Intra-op parallelism for the attention kernel: heads are split across
  /// `pool` (nullptr = serial). Heads are independent, so the parallel
  /// result is bit-identical to the serial one.
  void set_compute_pool(parallel::ThreadPool* pool) { compute_pool_ = pool; }

  /// Run all layers over a batch of hidden-state matrices ([T_i, h]),
  /// appending every position to the caches. Layer-outer: weights are
  /// fetched once per layer for the whole batch; with `prefetch` non-null,
  /// layer i+1's weights load asynchronously while layer i computes.
  void forward(std::vector<tensor::Tensor>& states,
               std::vector<SequenceCache*>& caches,
               parallel::ThreadPool* prefetch = nullptr);

  /// Final LayerNorm + tied unembedding of the last row → [vocab].
  tensor::Tensor logits(const tensor::Tensor& state);

  /// Weight-tensor name for OffloadManager lookups, e.g. name(3, "wq").
  static std::string weight_name(std::int64_t layer, const std::string& kind);

 private:
  struct LayerWeights {
    tensor::Tensor wq, wk, wv, wo, w1, w2;
    tensor::Tensor ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
  };
  /// One of a layer's weight tensors: its name suffix, its LayerWeights
  /// member and its shape in ModelSpec dimensions. Matrices [rows, cols]
  /// start normal; vectors (cols == nullptr) start filled with `fill`.
  struct WeightKind {
    const char* name;
    tensor::Tensor LayerWeights::*member;
    std::int64_t model::ModelSpec::*rows;
    std::int64_t model::ModelSpec::*cols;
    float fill;
  };
  /// Every weight of a layer, in registration order (which fixes the RNG
  /// draws). Registration, fetch_layer and the layer-ahead prefetch all
  /// walk this one table.
  static const WeightKind kLayerWeights[10];

  LayerWeights fetch_layer(std::int64_t layer);
  /// One layer over one sequence: attention (with cache append) + MLP.
  tensor::Tensor layer_forward(const LayerWeights& w, const tensor::Tensor& x,
                               KVCache& cache);
  tensor::Tensor attention(const LayerWeights& w, const tensor::Tensor& x,
                           KVCache& cache);

  model::ModelSpec spec_;
  OffloadManager& manager_;
  parallel::ThreadPool* compute_pool_ = nullptr;
  tensor::Tensor embedding_;  ///< [vocab, h], always device-resident
  tensor::Tensor lnf_gamma_, lnf_beta_;
};

}  // namespace lmo::runtime
