#include "lmo/runtime/transformer.hpp"

#include <cmath>
#include <cstring>

#include "lmo/telemetry/trace.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {

using tensor::Tensor;

namespace {

// Spans carry the six Algorithm-1 task names so a runtime trace lines up
// with the simulator's predicted timeline (see docs/observability.md for
// the exact operation ↔ task mapping).
constexpr const char* kSpanCategory = "decode";

telemetry::ScopedSpan task_span(const char* name) {
  return telemetry::ScopedSpan(telemetry::TraceRecorder::global(), name,
                               kSpanCategory);
}

}  // namespace

const Transformer::WeightKind Transformer::kLayerWeights[10] = {
    {"wq", &LayerWeights::wq, &model::ModelSpec::hidden,
     &model::ModelSpec::hidden, 0.0f},
    {"wk", &LayerWeights::wk, &model::ModelSpec::hidden,
     &model::ModelSpec::hidden, 0.0f},
    {"wv", &LayerWeights::wv, &model::ModelSpec::hidden,
     &model::ModelSpec::hidden, 0.0f},
    {"wo", &LayerWeights::wo, &model::ModelSpec::hidden,
     &model::ModelSpec::hidden, 0.0f},
    {"w1", &LayerWeights::w1, &model::ModelSpec::mlp_hidden,
     &model::ModelSpec::hidden, 0.0f},
    {"w2", &LayerWeights::w2, &model::ModelSpec::hidden,
     &model::ModelSpec::mlp_hidden, 0.0f},
    {"ln1_gamma", &LayerWeights::ln1_gamma, &model::ModelSpec::hidden,
     nullptr, 1.0f},
    {"ln1_beta", &LayerWeights::ln1_beta, &model::ModelSpec::hidden, nullptr,
     0.0f},
    {"ln2_gamma", &LayerWeights::ln2_gamma, &model::ModelSpec::hidden,
     nullptr, 1.0f},
    {"ln2_beta", &LayerWeights::ln2_beta, &model::ModelSpec::hidden, nullptr,
     0.0f},
};

std::string Transformer::weight_name(std::int64_t layer,
                                     const std::string& kind) {
  return "layer" + std::to_string(layer) + "." + kind;
}

Transformer::Transformer(const model::ModelSpec& spec,
                         OffloadManager& manager, std::int64_t device_layers,
                         std::uint64_t seed, std::int64_t disk_layers)
    : spec_(spec), manager_(manager) {
  spec.validate();
  LMO_CHECK_GE(device_layers, 0);
  LMO_CHECK_GE(disk_layers, 0);
  LMO_CHECK_LE(device_layers + disk_layers, spec.num_layers);

  util::Xoshiro256 rng(seed);
  const std::int64_t h = spec.hidden;
  const float stddev = 0.4f / std::sqrt(static_cast<float>(h));

  // The embedding table is always device-resident (it is touched every
  // token); registering it charges the device pool.
  manager_.register_tensor("embedding", Tensor::normal({spec.vocab, h}, rng,
                                                       1.0f),
                           Tier::kDevice);
  embedding_ = manager_.fetch("embedding");
  lnf_gamma_ = Tensor::full({h}, 1.0f);
  lnf_beta_ = Tensor::zeros({h});

  for (std::int64_t layer = 0; layer < spec.num_layers; ++layer) {
    // Hottest layers on the device, coldest at the back of the model on
    // disk — mirroring the policy search's weights_on_gpu/_on_disk split.
    const Tier tier = layer < device_layers ? Tier::kDevice
                      : layer >= spec.num_layers - disk_layers
                          ? Tier::kDisk
                          : Tier::kHost;
    for (const WeightKind& kind : kLayerWeights) {
      const std::int64_t rows = spec.*kind.rows;
      Tensor value = kind.cols == nullptr
                         ? Tensor::full({rows}, kind.fill)
                         : Tensor::normal({rows, spec.*kind.cols}, rng, stddev);
      manager_.register_tensor(weight_name(layer, kind.name),
                               std::move(value), tier);
    }
  }
}

SequenceCache Transformer::make_cache(int kv_bits, std::int64_t group_size,
                                      MemoryPool& pool) const {
  SequenceCache cache;
  cache.reserve(static_cast<std::size_t>(spec_.num_layers));
  for (std::int64_t layer = 0; layer < spec_.num_layers; ++layer) {
    cache.emplace_back(spec_.hidden, kv_bits, group_size, pool);
  }
  return cache;
}

Tensor Transformer::embed(std::span<const std::int64_t> tokens) {
  LMO_CHECK(!tokens.empty());
  const auto span = task_span("load_activation");
  const std::int64_t h = spec_.hidden;
  Tensor out = Tensor::zeros({static_cast<std::int64_t>(tokens.size()), h});
  auto dst = out.f32();
  auto src = embedding_.f32();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::int64_t token = tokens[i];
    LMO_CHECK_GE(token, 0);
    LMO_CHECK_LT(token, spec_.vocab);
    std::memcpy(dst.data() + static_cast<std::int64_t>(i) * h,
                src.data() + token * h,
                static_cast<std::size_t>(h) * sizeof(float));
  }
  return out;
}

Transformer::LayerWeights Transformer::fetch_layer(std::int64_t layer) {
  LayerWeights w;
  for (const WeightKind& kind : kLayerWeights) {
    w.*kind.member = manager_.fetch(weight_name(layer, kind.name));
  }
  return w;
}

Tensor Transformer::attention(const LayerWeights& w, const Tensor& x,
                              KVCache& cache) {
  const std::int64_t t_new = x.shape()[0];
  const std::int64_t h = spec_.hidden;
  const std::int64_t heads = spec_.num_heads;
  const std::int64_t hd = spec_.head_dim();

  Tensor q, k, v;
  {
    const auto span = task_span("compute");
    q = tensor::matmul_nt(x, w.wq);
    k = tensor::matmul_nt(x, w.wk);
    v = tensor::matmul_nt(x, w.wv);
  }

  // Append the new positions to the cache (quantized at rest if enabled).
  {
    const auto span = task_span("store_cache");
    for (std::int64_t i = 0; i < t_new; ++i) {
      cache.append(tensor::slice_rows(k, i, i + 1).reshaped({h}),
                   tensor::slice_rows(v, i, i + 1).reshaped({h}));
    }
  }

  Tensor keys, values;
  std::int64_t total = 0;
  {
    const auto span = task_span("load_cache");
    keys = cache.keys();  // [prior + t_new, h]
    values = cache.values();
    total = cache.length();
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  Tensor out = Tensor::zeros({t_new, h});
  auto pout = out.f32();
  auto pq = q.f32();
  auto pk = keys.f32();
  auto pv = values.f32();

  // Per head: scores = q_h · K_hᵀ · scale with causal masking, softmax,
  // context = scores · V_h. Heads are independent, so they split cleanly
  // across the intra-op pool (bit-identical to the serial order).
  const auto head_range = [&](std::int64_t begin, std::int64_t end) {
    std::vector<float> scores(static_cast<std::size_t>(total));
    for (std::int64_t head = begin; head < end; ++head) {
      const std::int64_t off = head * hd;
      for (std::int64_t i = 0; i < t_new; ++i) {
        // Causal horizon in the *materialized* matrix: everything up to
        // and including token i's own row (the last t_new rows are the new
        // tokens). Equivalent to prior+i+1 for exact caches, and correct
        // under a sliding window, where total < prior + t_new.
        const std::int64_t visible = total - (t_new - 1 - i);
        if (visible <= 0) continue;  // fully evicted context (tiny window)
        const float* qrow = pq.data() + i * h + off;
        float mx = -1e30f;
        for (std::int64_t j = 0; j < visible; ++j) {
          const float* krow = pk.data() + j * h + off;
          float dot = 0.0f;
          for (std::int64_t d = 0; d < hd; ++d) dot += qrow[d] * krow[d];
          scores[static_cast<std::size_t>(j)] = dot * scale;
          mx = std::max(mx, dot * scale);
        }
        float sum = 0.0f;
        for (std::int64_t j = 0; j < visible; ++j) {
          auto& s = scores[static_cast<std::size_t>(j)];
          s = std::exp(s - mx);
          sum += s;
        }
        const float inv = 1.0f / sum;
        float* orow = pout.data() + i * h + off;
        for (std::int64_t j = 0; j < visible; ++j) {
          const float weight = scores[static_cast<std::size_t>(j)] * inv;
          const float* vrow = pv.data() + j * h + off;
          for (std::int64_t d = 0; d < hd; ++d) orow[d] += weight * vrow[d];
        }
      }
    }
  };

  const auto attn_span = task_span("compute");
  if (compute_pool_ == nullptr || compute_pool_->size() <= 1 || heads == 1) {
    head_range(0, heads);
  } else {
    const std::int64_t workers =
        std::min<std::int64_t>(compute_pool_->size(), heads);
    const std::int64_t chunk = (heads + workers - 1) / workers;
    std::vector<std::future<void>> pending;
    for (std::int64_t begin = 0; begin < heads; begin += chunk) {
      const std::int64_t end = std::min(begin + chunk, heads);
      pending.push_back(
          compute_pool_->submit([&, begin, end] { head_range(begin, end); }));
    }
    for (auto& f : pending) f.get();
  }
  return tensor::matmul_nt(out, w.wo);
}

Tensor Transformer::layer_forward(const LayerWeights& w, const Tensor& x,
                                  KVCache& cache) {
  // Pre-LN attention block.
  const Tensor normed1 = tensor::layer_norm(x, w.ln1_gamma, w.ln1_beta);
  const Tensor attn = attention(w, normed1, cache);
  const Tensor mid = tensor::add(x, attn);

  // Pre-LN MLP block with the model family's non-linearity.
  const auto mlp_span = task_span("compute");
  const Tensor normed2 = tensor::layer_norm(mid, w.ln2_gamma, w.ln2_beta);
  const Tensor pre = tensor::matmul_nt(normed2, w.w1);
  Tensor up;
  switch (spec_.activation) {
    case model::Activation::kGelu:
      up = tensor::gelu(pre);
      break;
    case model::Activation::kRelu:
      up = tensor::relu(pre);
      break;
    case model::Activation::kSilu:
      up = tensor::silu(pre);
      break;
  }
  const Tensor down = tensor::matmul_nt(up, w.w2);
  return tensor::add(mid, down);
}

void Transformer::forward(std::vector<Tensor>& states,
                          std::vector<SequenceCache*>& caches,
                          parallel::ThreadPool* prefetch) {
  LMO_CHECK_EQ(states.size(), caches.size());
  LMO_CHECK(!states.empty());

  for (std::int64_t layer = 0; layer < spec_.num_layers; ++layer) {
    if (prefetch != nullptr && layer + 1 < spec_.num_layers) {
      // Warm the next layer's weights concurrently with compute, one pool
      // task per tensor so the loads fan out over the workers.
      for (const WeightKind& kind : kLayerWeights) {
        (void)manager_.prefetch(weight_name(layer + 1, kind.name), *prefetch);
      }
    }
    const LayerWeights w = fetch_layer(layer);
    for (std::size_t s = 0; s < states.size(); ++s) {
      states[s] = layer_forward(
          w, states[s], (*caches[s])[static_cast<std::size_t>(layer)]);
    }
  }
}

Tensor Transformer::logits(const Tensor& state) {
  const std::int64_t rows = state.shape()[0];
  const Tensor last = tensor::slice_rows(state, rows - 1, rows);
  const Tensor normed = tensor::layer_norm(last, lnf_gamma_, lnf_beta_);
  return tensor::matmul_nt(normed, embedding_).reshaped({spec_.vocab});
}

}  // namespace lmo::runtime
