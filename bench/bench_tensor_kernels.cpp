// Micro-benchmarks of the tensor compute kernels the real runtime uses:
// matmul_nt at the decode and prefill shapes of the perfbench models
// (h = 128 and 192, vocab 4096), plus softmax / layernorm / activation
// throughput.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "lmo/tensor/ops.hpp"
#include "lmo/util/rng.hpp"

namespace {

using namespace lmo;
using tensor::Tensor;

Tensor make(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Tensor::uniform({rows, cols}, rng);
}

// Args are {m, k, n}: m activation rows times an [n, k] weight.
void BM_MatmulNt(benchmark::State& state) {
  const auto m = state.range(0);
  const auto k = state.range(1);
  const auto n = state.range(2);
  const Tensor a = make(m, k, 1);
  const Tensor b = make(n, k, 2);
  for (auto _ : state) {
    auto c = tensor::matmul_nt(a, b);
    benchmark::DoNotOptimize(c.raw().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void MatmulNtShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "k", "n"});
  for (const std::int64_t h : {128, 192}) {
    for (const std::int64_t m : {1, 2}) {
      b->Args({m, h, h});          // q/k/v/out projections
      b->Args({m, h, 4 * h});      // MLP up
      b->Args({m, 4 * h, h});      // MLP down
      b->Args({m, h, 4096});       // LM head
    }
  }
  b->Args({192, 128, 128});  // prefill of a 192-token prompt
}
BENCHMARK(BM_MatmulNt)->MinTime(0.05)->Apply(MatmulNtShapes);

void BM_Softmax(benchmark::State& state) {
  const Tensor a = make(256, 1024, 3);
  for (auto _ : state) {
    auto s = tensor::softmax_rows(a);
    benchmark::DoNotOptimize(s.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_Softmax)->MinTime(0.05);

void BM_LayerNorm(benchmark::State& state) {
  const Tensor a = make(256, 1024, 4);
  const Tensor gamma = Tensor::full({1024}, 1.0f);
  const Tensor beta = Tensor::zeros({1024});
  for (auto _ : state) {
    auto n = tensor::layer_norm(a, gamma, beta);
    benchmark::DoNotOptimize(n.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_LayerNorm)->MinTime(0.05);

void BM_Activations(benchmark::State& state) {
  const Tensor a = make(256, 1024, 5);
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tensor out = which == 0   ? tensor::gelu(a)
                 : which == 1 ? tensor::relu(a)
                              : tensor::silu(a);
    benchmark::DoNotOptimize(out.raw().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.byte_size()));
}
BENCHMARK(BM_Activations)
    ->MinTime(0.05)
    ->Arg(0)   // gelu
    ->Arg(1)   // relu
    ->Arg(2);  // silu

}  // namespace

int main(int argc, char** argv) {
  // Strip the repo-wide --quick/--json flags before google-benchmark sees
  // the command line (it rejects flags it does not know).
  lmo::bench::Session session(argc, argv, "bench_tensor_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
