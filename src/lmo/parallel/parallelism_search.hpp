// Thread-level parallelism management — paper §4.2, Algorithm 3.
//
// Decides, for the six decode tasks:
//   * intra-op parallelism for the compute task's operators (one shared
//     value — the paper keeps it uniform to avoid cache misses from
//     re-sizing thread teams);
//   * inter-op parallelism for the compute task = the op graph's maximum
//     concurrency level (Kahn), bounded by the thread budget;
//   * thread counts for the five load/store tasks, proportional to their
//     data-transfer volumes, from the threads left over;
// and keeps the configuration with the best estimated throughput. At least
// five threads must remain for the load/store tasks (Algorithm 3, line 7).
#pragma once

#include <array>
#include <functional>

#include "lmo/hw/platform.hpp"
#include "lmo/model/opgraph.hpp"
#include "lmo/parallel/profile_db.hpp"
#include "lmo/parallel/scaling.hpp"

namespace lmo::parallel {

/// Indices into the five load/store tasks, matching Algorithm 1's order.
enum IoTask : std::size_t {
  kLoadWeight = 0,
  kStoreActivation = 1,
  kStoreCache = 2,
  kLoadCache = 3,
  kLoadActivation = 4,
};
inline constexpr std::size_t kNumIoTasks = 5;

/// Span / category names of the five I/O tasks, in IoTask order — the one
/// vocabulary shared by Algorithm 1's runtime trace spans, the DES task
/// categories, and the adaptive controller's window samples.
inline constexpr std::array<const char*, kNumIoTasks> kIoTaskNames = {
    "load_weight", "store_activation", "store_cache", "load_cache",
    "load_activation"};

struct SearchInput {
  model::OpGraph compute_graph;            ///< attention task (Fig. 6)
  std::array<double, kNumIoTasks> io_bytes{};  ///< per-step transfer volumes
  hw::Platform platform;
  /// Thread budget (paper uses the physical cores). 0 → platform.cpu.cores.
  int max_threads = 0;
  /// Copy bandwidth one thread sustains when staging an I/O task.
  double per_thread_copy_bw = 6e9;
  /// Disk-tier staging (three-tier offload): per-step disk→CPU volume for
  /// disk-resident weight shards. 0 = no disk tier — the search then
  /// reserves no disk threads and reproduces legacy plans exactly.
  double disk_bytes = 0.0;
  /// Measured disk bandwidth (GB/s); 0 → platform.disk_to_cpu.bandwidth.
  double disk_gbps = 0.0;
};

struct ParallelismPlan {
  int intra_op_compute = 1;
  int inter_op_compute = 1;
  /// Total inter-op parallelism = compute + the five load/store tasks.
  int inter_op_total = 6;
  std::array<int, kNumIoTasks> io_threads{};
  double compute_seconds = 0.0;  ///< scheduled compute-task makespan
  std::array<double, kNumIoTasks> io_seconds{};
  /// Disk-load staging task (three-tier offload): threads sized so their
  /// aggregate copy bandwidth covers the disk link (≤ 4), and the
  /// resulting disk→CPU read time. Both zero without disk bytes.
  int disk_threads = 0;
  double disk_seconds = 0.0;
  double t_gen = 0.0;            ///< max over tasks (Eq. 2)
  bool valid = false;
};

/// Peak number of simultaneously running ops when the graph executes with
/// unlimited lanes and per-op durations from `op_seconds` — the "maximum
/// concurrency level" of Algorithm 3 line 4, time-weighted.
int max_concurrency_timed(
    const model::OpGraph& graph,
    const std::function<double(const model::OpNode&)>& op_seconds);

/// Makespan of the compute graph on `inter_op` lanes with per-op durations
/// from `op_seconds` (deterministic list scheduling).
double schedule_compute_graph(
    const model::OpGraph& graph, int inter_op,
    const std::function<double(const model::OpNode&)>& op_seconds);

/// Score one *fixed* thread allocation under `input` (Eq. 2 applied to the
/// given configuration instead of searching for one). The adaptive
/// controller re-costs the currently applied plan against re-calibrated
/// inputs with this, and the benches use it as ground truth for a plan
/// executed on a platform whose true parameters differ from the believed
/// ones.
ParallelismPlan evaluate_parallelism(
    const SearchInput& input, int intra_op, int inter_op,
    const std::array<int, kNumIoTasks>& io_threads,
    const ProfileDB* profiles = nullptr);

/// Algorithm 3. Uses the analytic ThreadScalingModel for op times; pass a
/// ProfileDB to override specific (op, threads) entries with measured data.
ParallelismPlan find_optimal_parallelism(const SearchInput& input,
                                         const ProfileDB* profiles = nullptr);

/// The default (uncontrolled) configuration the paper compares against:
/// intra-op = all physical cores, inter-op = all hardware threads.
ParallelismPlan default_parallelism(const SearchInput& input);

}  // namespace lmo::parallel
