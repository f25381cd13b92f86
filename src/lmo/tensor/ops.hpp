// Transformer compute primitives, f32 only. These are the "real execution"
// kernels the runtime uses; they favour clarity and testability over peak
// throughput (the paper-scale experiments run on the simulator, not here).
#pragma once

#include <cstdint>

#include "lmo/tensor/tensor.hpp"

namespace lmo::tensor {

/// C[m,n] = A[m,k] · B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] · Bᵀ where B is [n,k] (projection with row-major weights).
/// Each C[i,j] sums k in 64-wide chunks: every chunk's products are summed
/// into a fresh partial, and the partials are added in k order. That order
/// is fixed; kv_golden_test pins the logits it produces.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// out = a + b, elementwise, matching shapes.
Tensor add(const Tensor& a, const Tensor& b);

/// out[i,j] = a[i,j] + bias[j]; bias is rank-1 of extent a.dim(last).
Tensor add_bias(const Tensor& a, const Tensor& bias);

/// Scale in place: a *= s.
void scale_inplace(Tensor& a, float s);

/// Row-wise numerically-stable softmax over the last dimension (rank 2).
Tensor softmax_rows(const Tensor& a);

/// LayerNorm over the last dimension with learned gamma/beta (rank-1).
Tensor layer_norm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                  float epsilon = 1e-5f);

/// Elementwise tanh-approximation GELU.
Tensor gelu(const Tensor& a);

/// Elementwise ReLU (OPT uses ReLU in its MLP).
Tensor relu(const Tensor& a);

/// Elementwise SiLU / swish, x·sigmoid(x) (LLaMA's activation).
Tensor silu(const Tensor& a);

/// Transpose a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

/// Concatenate two rank-2 tensors along axis 0 (KV-cache append).
Tensor concat_rows(const Tensor& a, const Tensor& b);

/// Take rows [begin, end) of a rank-2 tensor (copy).
Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end);

/// Index of the max element of a rank-1 tensor (greedy decoding).
std::int64_t argmax(const Tensor& a);

/// Total FLOPs of matmul([m,k],[k,n]) — used to cross-check compute models.
double matmul_flops(std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace lmo::tensor
