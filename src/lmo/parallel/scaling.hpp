// Thread-scaling model for CPU operators (paper §4.1, Fig. 5).
//
// An operator's runtime as a function of its intra-op thread count and the
// total thread pressure on the machine. Three effects, each observed in the
// paper's characterization:
//   1. Memory-bound ops stop scaling once a few threads saturate memory
//      bandwidth ("performance becomes stable when threads > 8").
//   2. Oversubscribing hardware threads (co-running operators × intra-op
//      threads beyond the core count) thrashes the cache hierarchy and
//      adds scheduling overhead (the paper's 40% variance).
//   3. Crossing the socket boundary pays a NUMA penalty ("cross-socket
//      memory accesses become more often").
//
// The paper handles this with offline profiles; we provide the analytic
// curve (calibrated to Fig. 5's shape). Measured compute time reaches the
// search through the adaptive controller's ProfileDB overlay, which scales
// this curve by the runtime's measured/predicted ratio.
#pragma once

#include "lmo/hw/platform.hpp"
#include "lmo/model/opgraph.hpp"

namespace lmo::parallel {

struct ScalingParams {
  /// Threads at which a memory-bound op reaches full memory bandwidth.
  int bw_saturation_threads = 8;
  /// Threads beyond which one op's *compute* stops scaling (sync and cache
  /// limits inside a single kernel — paper §4.1: "performance ... becomes
  /// stable when the number of threads is larger than 8").
  int per_op_compute_cap = 8;
  /// Cache-thrash penalty slope per unit of oversubscription beyond the
  /// physical cores (on top of fair core sharing).
  double oversubscription_penalty = 0.05;
  /// Multiplier once a single op's threads span both sockets.
  double numa_penalty = 1.10;
  /// Fixed per-op scheduling overhead (thread wake/join), seconds.
  double dispatch_overhead = 8e-6;
};

class ThreadScalingModel {
 public:
  ThreadScalingModel(const hw::Device& cpu, ScalingParams params = {});

  /// Runtime of one operator with `intra_threads` threads while
  /// `total_active_threads` are live machine-wide (its own included).
  double op_seconds(const model::OpNode& op, int intra_threads,
                    int total_active_threads) const;

  /// Effective memory bandwidth a single op achieves with `intra_threads`.
  double effective_bandwidth(int intra_threads) const;

  /// Cache-thrash multiplier (≥ 1) for the machine-wide thread pressure.
  double contention_factor(int total_active_threads) const;

  const ScalingParams& params() const { return params_; }
  const hw::Device& cpu() const { return cpu_; }

 private:
  hw::Device cpu_;
  ScalingParams params_;
};

}  // namespace lmo::parallel
