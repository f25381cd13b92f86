#include <gtest/gtest.h>

#include <cmath>

#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/rng.hpp"

namespace lmo::tensor {
namespace {

using util::CheckError;

TEST(Ops, MatmulKnownValues) {
  // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_values({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 50.0f);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({4, 2});
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(Ops, MatmulNtEqualsMatmulWithTranspose) {
  util::Xoshiro256 rng(1);
  // Small, ragged around the 64-wide k-chunks (k = 70, 130), exactly one
  // chunk, and a k = 768 decode row: the h = 192 model's MLP-down input
  // against a weight at the runtime's init scale, 0.4 / sqrt(h). The
  // absolute tolerance presumes O(1) outputs; 768 unit-scale products sum
  // to ~10, where the two summation orders differ by ~2.5e-5.
  struct Case {
    int m, k, n;
    float weight_stddev;  // 0: uniform in [-1, 1)
  };
  for (const Case c : {Case{5, 7, 4, 0.0f}, Case{65, 70, 33, 0.0f},
                       Case{64, 64, 64, 0.0f}, Case{1, 130, 7, 0.0f},
                       Case{1, 768, 192, 0.4f / std::sqrt(192.0f)}}) {
    Tensor a = Tensor::uniform({c.m, c.k}, rng);
    Tensor b = c.weight_stddev > 0.0f  // [n, k]
                   ? Tensor::normal({c.n, c.k}, rng, c.weight_stddev)
                   : Tensor::uniform({c.n, c.k}, rng);
    Tensor via_nt = matmul_nt(a, b);
    Tensor via_t = matmul(a, transpose2d(b));
    EXPECT_LE(via_nt.max_abs_diff(via_t), 1e-5f)
        << c.m << "x" << c.k << "x" << c.n;
  }
}

TEST(Ops, MatmulIdentity) {
  util::Xoshiro256 rng(2);
  Tensor a = Tensor::uniform({4, 4}, rng);
  Tensor eye = Tensor::zeros({4, 4});
  for (int i = 0; i < 4; ++i) eye.set({i, i}, 1.0f);
  EXPECT_LE(matmul(a, eye).max_abs_diff(a), 1e-6f);
}

TEST(Ops, AddAndAddBias) {
  Tensor a = Tensor::from_values({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_values({2, 2}, {10, 20, 30, 40});
  Tensor s = add(a, b);
  EXPECT_FLOAT_EQ(s.at({1, 1}), 44.0f);

  Tensor bias = Tensor::from_values({2}, {100, 200});
  Tensor ab = add_bias(a, bias);
  EXPECT_FLOAT_EQ(ab.at({0, 0}), 101.0f);
  EXPECT_FLOAT_EQ(ab.at({1, 1}), 204.0f);
}

TEST(Ops, ScaleInplace) {
  Tensor a = Tensor::full({3}, 2.0f);
  scale_inplace(a, -0.5f);
  EXPECT_FLOAT_EQ(a.at({0}), -1.0f);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, -1, -1, -1});
  Tensor s = softmax_rows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) sum += s.at({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(s.at({0, 2}), s.at({0, 1}));
  EXPECT_NEAR(s.at({1, 0}), 1.0f / 3.0f, 1e-6f);  // uniform row
}

TEST(Ops, SoftmaxNumericallyStableForLargeInputs) {
  Tensor a = Tensor::from_values({1, 2}, {1000.0f, 1001.0f});
  Tensor s = softmax_rows(a);
  EXPECT_FALSE(std::isnan(s.at({0, 0})));
  EXPECT_NEAR(s.at({0, 0}) + s.at({0, 1}), 1.0f, 1e-6f);
}

TEST(Ops, LayerNormZeroMeanUnitVariance) {
  util::Xoshiro256 rng(7);
  Tensor a = Tensor::uniform({4, 64}, rng, -5.0f, 5.0f);
  Tensor gamma = Tensor::full({64}, 1.0f);
  Tensor beta = Tensor::zeros({64});
  Tensor n = layer_norm(a, gamma, beta);
  for (int r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (int c = 0; c < 64; ++c) mean += n.at({r, c});
    mean /= 64.0;
    for (int c = 0; c < 64; ++c) {
      var += (n.at({r, c}) - mean) * (n.at({r, c}) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Ops, LayerNormAppliesGammaBeta) {
  Tensor a = Tensor::from_values({1, 2}, {0.0f, 2.0f});
  Tensor gamma = Tensor::from_values({2}, {2.0f, 2.0f});
  Tensor beta = Tensor::from_values({2}, {1.0f, 1.0f});
  Tensor n = layer_norm(a, gamma, beta);
  // normalized = {-1, 1} → ×2 + 1 = {-1, 3}
  EXPECT_NEAR(n.at({0, 0}), -1.0f, 1e-4f);
  EXPECT_NEAR(n.at({0, 1}), 3.0f, 1e-4f);
}

TEST(Ops, GeluMatchesReferencePoints) {
  Tensor a = Tensor::from_values({3}, {-1.0f, 0.0f, 1.0f});
  Tensor g = gelu(a.reshaped({1, 3})).reshaped({3});
  EXPECT_NEAR(g.at({0}), -0.1588f, 1e-3f);
  EXPECT_FLOAT_EQ(g.at({1}), 0.0f);
  EXPECT_NEAR(g.at({2}), 0.8412f, 1e-3f);
}

TEST(Ops, ReluClampsNegative) {
  Tensor a = Tensor::from_values({3}, {-2.0f, 0.0f, 2.0f});
  Tensor r = relu(a);
  EXPECT_FLOAT_EQ(r.at({0}), 0.0f);
  EXPECT_FLOAT_EQ(r.at({2}), 2.0f);
}

TEST(Ops, TransposeInvolution) {
  util::Xoshiro256 rng(9);
  Tensor a = Tensor::uniform({3, 5}, rng);
  EXPECT_EQ(transpose2d(transpose2d(a)).max_abs_diff(a), 0.0f);
  EXPECT_EQ(transpose2d(a).shape(), Shape({5, 3}));
}

TEST(Ops, ConcatAndSliceRows) {
  Tensor a = Tensor::full({2, 3}, 1.0f);
  Tensor b = Tensor::full({1, 3}, 2.0f);
  Tensor c = concat_rows(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 3}));
  EXPECT_FLOAT_EQ(c.at({2, 0}), 2.0f);

  Tensor s = slice_rows(c, 1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(s.at({1, 0}), 2.0f);
  EXPECT_THROW(slice_rows(c, 2, 5), util::CheckError);
}

TEST(Ops, ArgmaxFindsFirstMaximum) {
  Tensor a = Tensor::from_values({5}, {0.1f, 3.0f, -1.0f, 3.0f, 2.0f});
  EXPECT_EQ(argmax(a), 1);  // first of the ties
}

TEST(Ops, MatmulFlopsFormula) {
  EXPECT_DOUBLE_EQ(matmul_flops(2, 3, 4), 48.0);
}

}  // namespace
}  // namespace lmo::tensor
