#include "lmo/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::tensor {
namespace {

void require_rank2(const Tensor& t, const char* name) {
  LMO_CHECK_MSG(t.shape().rank() == 2,
                std::string(name) + " must be rank 2, got " +
                    t.shape().to_string());
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul lhs");
  require_rank2(b, "matmul rhs");
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  LMO_CHECK_EQ(b.shape()[0], k);
  const std::int64_t n = b.shape()[1];

  Tensor c = Tensor::zeros({m, n});
  auto pa = a.f32();
  auto pb = b.f32();
  auto pc = c.f32();
  // i-k-j loop order: unit-stride inner loop on both B and C.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[static_cast<std::size_t>(i * k + kk)];
      if (aik == 0.0f) continue;
      const float* brow = pb.data() + kk * n;
      float* crow = pc.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt lhs");
  require_rank2(b, "matmul_nt rhs");
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  LMO_CHECK_EQ(b.shape()[1], k);
  const std::int64_t n = b.shape()[0];
  // Width of the k-chunks summed separately before they are added up. It
  // fixes the rounding order (pinned by kv_golden_test), not a tile size.
  constexpr std::int64_t kChunk = 64;

  Tensor c = Tensor::zeros({m, n});
  auto pa = a.f32();
  auto pb = b.f32();
  auto pc = c.f32();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa.data() + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb.data() + j * k;
      float sum = 0.0f;
      for (std::int64_t k0 = 0; k0 < k; k0 += kChunk) {
        const std::int64_t k1 = std::min(k0 + kChunk, k);
        float acc = 0.0f;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          acc += arow[kk] * brow[kk];
        }
        sum += acc;
      }
      pc[static_cast<std::size_t>(i * n + j)] = sum;
    }
  }
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  LMO_CHECK(a.shape() == b.shape());
  Tensor out = a.clone();
  auto po = out.f32();
  auto pb = b.f32();
  for (std::size_t i = 0; i < po.size(); ++i) po[i] += pb[i];
  return out;
}

Tensor add_bias(const Tensor& a, const Tensor& bias) {
  require_rank2(a, "add_bias input");
  LMO_CHECK_EQ(bias.shape().rank(), 1u);
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_EQ(bias.shape()[0], cols);

  Tensor out = a.clone();
  auto po = out.f32();
  auto pbias = bias.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = po.data() + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) row[j] += pbias[j];
  }
  return out;
}

void scale_inplace(Tensor& a, float s) {
  for (float& x : a.f32()) x *= s;
}

Tensor softmax_rows(const Tensor& a) {
  require_rank2(a, "softmax input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_GT(cols, 0);

  Tensor out = a.clone();
  auto p = out.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    float mx = row[0];
    for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
  return out;
}

Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  float epsilon) {
  require_rank2(a, "layer_norm input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  LMO_CHECK_EQ(gamma.shape()[0], cols);
  LMO_CHECK_EQ(beta.shape()[0], cols);

  Tensor out = a.clone();
  auto p = out.f32();
  auto pg = gamma.f32();
  auto pb = beta.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    double mean = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) mean += row[j];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const double d = row[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = (row[j] - static_cast<float>(mean)) * inv * pg[j] + pb[j];
    }
  }
  return out;
}

Tensor gelu(const Tensor& a) {
  Tensor out = a.clone();
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  for (float& x : out.f32()) {
    x = 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
  }
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out = a.clone();
  for (float& x : out.f32()) x = std::max(x, 0.0f);
  return out;
}

Tensor silu(const Tensor& a) {
  Tensor out = a.clone();
  for (float& x : out.f32()) x = x / (1.0f + std::exp(-x));
  return out;
}

Tensor transpose2d(const Tensor& a) {
  require_rank2(a, "transpose input");
  const std::int64_t rows = a.shape()[0];
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({cols, rows});
  auto pa = a.f32();
  auto po = out.f32();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      po[static_cast<std::size_t>(j * rows + i)] =
          pa[static_cast<std::size_t>(i * cols + j)];
    }
  }
  return out;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  require_rank2(a, "concat lhs");
  require_rank2(b, "concat rhs");
  LMO_CHECK_EQ(a.shape()[1], b.shape()[1]);
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({a.shape()[0] + b.shape()[0], cols});
  std::memcpy(out.raw().data(), a.raw().data(), a.raw().size());
  std::memcpy(out.raw().data() + a.raw().size(), b.raw().data(),
              b.raw().size());
  return out;
}

Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end) {
  require_rank2(a, "slice input");
  LMO_CHECK_GE(begin, 0);
  LMO_CHECK_LE(begin, end);
  LMO_CHECK_LE(end, a.shape()[0]);
  const std::int64_t cols = a.shape()[1];
  Tensor out = Tensor::zeros({end - begin, cols});
  std::memcpy(out.raw().data(),
              a.raw().data() + begin * cols * sizeof(float),
              static_cast<std::size_t>((end - begin) * cols) * sizeof(float));
  return out;
}

std::int64_t argmax(const Tensor& a) {
  LMO_CHECK_EQ(a.shape().rank(), 1u);
  auto p = a.f32();
  LMO_CHECK(!p.empty());
  std::int64_t best = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[static_cast<std::size_t>(best)]) {
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

double matmul_flops(std::int64_t m, std::int64_t k, std::int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace lmo::tensor
