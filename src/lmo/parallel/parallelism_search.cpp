#include "lmo/parallel/parallelism_search.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lmo/sim/engine.hpp"
#include "lmo/util/check.hpp"

namespace lmo::parallel {
namespace {

constexpr int kReservedIoThreads = 5;  // Algorithm 3, line 7

/// Per-op duration the search and evaluate_parallelism share: a measured
/// profile entry, corrected by the machine-wide contention factor, when the
/// ProfileDB has one, else the analytic ThreadScalingModel curve.
std::function<double(const model::OpNode&)> op_seconds_fn(
    const SearchInput& input, int intra_threads, int total_active_threads,
    const ProfileDB* profiles) {
  return [scaling = ThreadScalingModel(input.platform.cpu), intra_threads,
          total_active_threads, profiles](const model::OpNode& op) {
    if (profiles != nullptr && profiles->has(op.name, intra_threads)) {
      return profiles->lookup(op.name, intra_threads) *
             scaling.contention_factor(total_active_threads);
    }
    return scaling.op_seconds(op, intra_threads, total_active_threads);
  };
}

double disk_bw(const SearchInput& input) {
  return input.disk_gbps > 0.0 ? input.disk_gbps * 1e9
                               : input.platform.disk_to_cpu.bandwidth;
}

/// Staging threads for the disk-load task: enough that their aggregate
/// copy bandwidth covers the disk link (disk reads land in host buffers
/// through the same per-thread memcpy path as the PCIe stages), capped at
/// 4 so a slow link cannot starve the compute tasks. Zero without a disk
/// tier, so legacy searches are bit-for-bit unchanged.
int disk_threads_needed(const SearchInput& input) {
  if (input.disk_bytes <= 0.0) return 0;
  const double per_thread = std::max(input.per_thread_copy_bw, 1.0);
  const int need = static_cast<int>(std::ceil(disk_bw(input) / per_thread));
  return std::clamp(need, 1, 4);
}

double io_task_seconds(double bytes, int threads, double link_bw,
                       double per_thread_copy_bw) {
  if (bytes <= 0.0) return 0.0;
  LMO_CHECK_GE(threads, 1);
  const double rate =
      std::min(link_bw, per_thread_copy_bw * static_cast<double>(threads));
  return bytes / rate;
}

std::array<int, kNumIoTasks> assign_io_threads(
    const std::array<double, kNumIoTasks>& volumes, int free_threads) {
  LMO_CHECK_GE(free_threads, kReservedIoThreads);
  std::array<int, kNumIoTasks> threads;
  threads.fill(1);  // each load/store task runs one operation (paper §4.2)
  int remaining = free_threads - static_cast<int>(kNumIoTasks);

  double total = 0.0;
  for (double v : volumes) total += v;
  if (total <= 0.0 || remaining <= 0) return threads;

  // Largest-remainder proportional allocation.
  std::array<double, kNumIoTasks> exact{};
  std::array<int, kNumIoTasks> extra{};
  int assigned = 0;
  for (std::size_t i = 0; i < kNumIoTasks; ++i) {
    exact[i] = static_cast<double>(remaining) * volumes[i] / total;
    extra[i] = static_cast<int>(exact[i]);
    assigned += extra[i];
  }
  std::vector<std::size_t> order(kNumIoTasks);
  for (std::size_t i = 0; i < kNumIoTasks; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return (exact[a] - extra[a]) > (exact[b] - extra[b]);
  });
  for (std::size_t i = 0; i < order.size() && assigned < remaining; ++i) {
    ++extra[order[i]];
    ++assigned;
  }
  for (std::size_t i = 0; i < kNumIoTasks; ++i) threads[i] += extra[i];
  return threads;
}

}  // namespace

int max_concurrency_timed(
    const model::OpGraph& graph,
    const std::function<double(const model::OpNode&)>& op_seconds) {
  if (graph.size() == 0) return 0;
  // Infinite lanes: start = max over predecessor finishes.
  const auto order = graph.topological_order();
  std::vector<double> start(graph.size(), 0.0);
  std::vector<double> finish(graph.size(), 0.0);
  for (model::OpId id : order) {
    double s = 0.0;
    for (model::OpId p : graph.predecessors(id)) {
      s = std::max(s, finish[static_cast<std::size_t>(p)]);
    }
    start[static_cast<std::size_t>(id)] = s;
    finish[static_cast<std::size_t>(id)] =
        s + op_seconds(graph.node(id));
  }
  // Sweep events to find peak overlap.
  std::vector<std::pair<double, int>> events;
  events.reserve(graph.size() * 2);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    events.push_back({start[i], +1});
    events.push_back({finish[i], -1});
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // process ends before starts
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

double schedule_compute_graph(
    const model::OpGraph& graph, int inter_op,
    const std::function<double(const model::OpNode&)>& op_seconds) {
  LMO_CHECK_GE(inter_op, 1);
  if (graph.size() == 0) return 0.0;
  sim::Engine engine;
  const auto lanes = engine.add_resource("cpu_ops", inter_op);
  const auto order = graph.topological_order();
  std::vector<sim::TaskId> task_of(graph.size(), sim::kInvalidTask);
  for (model::OpId id : order) {
    std::vector<sim::TaskId> deps;
    for (model::OpId p : graph.predecessors(id)) {
      deps.push_back(task_of[static_cast<std::size_t>(p)]);
    }
    task_of[static_cast<std::size_t>(id)] =
        engine.add_task(graph.node(id).name, "op", lanes,
                        op_seconds(graph.node(id)), deps);
  }
  return engine.run().makespan;
}

ParallelismPlan evaluate_parallelism(
    const SearchInput& input, int intra_op, int inter_op,
    const std::array<int, kNumIoTasks>& io_threads,
    const ProfileDB* profiles) {
  LMO_CHECK_GE(intra_op, 1);
  LMO_CHECK_GE(inter_op, 1);
  int io_thread_total = 0;
  for (int t : io_threads) {
    LMO_CHECK_GE(t, 1);
    io_thread_total += t;
  }
  const int disk_threads = disk_threads_needed(input);
  const int total_active = inter_op * intra_op + io_thread_total +
                           disk_threads;
  const auto contended =
      op_seconds_fn(input, intra_op, total_active, profiles);

  ParallelismPlan plan;
  plan.intra_op_compute = intra_op;
  plan.inter_op_compute = inter_op;
  plan.inter_op_total = inter_op + static_cast<int>(kNumIoTasks) +
                        (disk_threads > 0 ? 1 : 0);
  plan.io_threads = io_threads;
  plan.disk_threads = disk_threads;
  plan.compute_seconds =
      schedule_compute_graph(input.compute_graph, inter_op, contended);
  double t_gen = plan.compute_seconds;
  for (std::size_t i = 0; i < kNumIoTasks; ++i) {
    const double link = (i == kStoreActivation || i == kStoreCache)
                            ? input.platform.d2h_bw()
                            : input.platform.h2d_bw();
    plan.io_seconds[i] = io_task_seconds(input.io_bytes[i], io_threads[i],
                                         link, input.per_thread_copy_bw);
    t_gen = std::max(t_gen, plan.io_seconds[i]);
  }
  if (disk_threads > 0) {
    plan.disk_seconds = io_task_seconds(input.disk_bytes, disk_threads,
                                        disk_bw(input),
                                        input.per_thread_copy_bw);
    t_gen = std::max(t_gen, plan.disk_seconds);
  }
  plan.t_gen = t_gen;
  plan.valid = true;
  return plan;
}

ParallelismPlan find_optimal_parallelism(const SearchInput& input,
                                         const ProfileDB* profiles) {
  const int max_threads =
      input.max_threads > 0 ? input.max_threads : input.platform.cpu.cores;
  // With a disk tier the staging threads are reserved on top of Algorithm
  // 3's five I/O threads — the disk-load task runs concurrently with the
  // PCIe stages and must not steal their lanes.
  const int reserved = kReservedIoThreads + disk_threads_needed(input);
  LMO_CHECK_GT(max_threads, reserved);

  ParallelismPlan best;
  double best_t_gen = 0.0;

  for (int intra = 1; intra <= max_threads - reserved; ++intra) {
    // Line 4: inter-op from the graph's max concurrency level, bounded by
    // the budget that must leave five threads for the I/O tasks.
    const auto solo = op_seconds_fn(input, intra, intra, profiles);
    int inter = max_concurrency_timed(input.compute_graph, solo);
    inter = std::max(1, std::min(inter, (max_threads - reserved) / intra));
    const int free_threads =
        max_threads - inter * intra - disk_threads_needed(input);
    if (free_threads < kReservedIoThreads) continue;  // Lines 6-7

    const auto io_threads = assign_io_threads(input.io_bytes, free_threads);
    const ParallelismPlan plan =
        evaluate_parallelism(input, intra, inter, io_threads, profiles);

    if (!best.valid || plan.t_gen < best_t_gen) {
      best = plan;
      best_t_gen = plan.t_gen;
    }
  }
  LMO_CHECK_MSG(best.valid, "no feasible parallelism configuration");
  return best;
}

ParallelismPlan default_parallelism(const SearchInput& input) {
  // Framework defaults (paper §4.1): intra-op = physical cores, inter-op =
  // all hardware threads — heavily oversubscribed.
  const ThreadScalingModel scaling(input.platform.cpu);
  const int intra = input.platform.cpu.cores;
  const int inter_limit = input.platform.cpu.hw_threads;

  const auto solo = [&](const model::OpNode& op) {
    return scaling.op_seconds(op, intra, intra);
  };
  int inter = max_concurrency_timed(input.compute_graph, solo);
  inter = std::max(1, std::min(inter, inter_limit));

  const int total_active = inter * intra + static_cast<int>(kNumIoTasks);
  const auto contended = [&](const model::OpNode& op) {
    return scaling.op_seconds(op, intra, total_active);
  };

  ParallelismPlan plan;
  plan.intra_op_compute = intra;
  plan.inter_op_compute = inter;
  plan.inter_op_total = inter + static_cast<int>(kNumIoTasks);
  plan.io_threads.fill(1);
  plan.compute_seconds =
      schedule_compute_graph(input.compute_graph, inter, contended);
  double t_gen = plan.compute_seconds;
  for (std::size_t i = 0; i < kNumIoTasks; ++i) {
    const double link = (i == kStoreActivation || i == kStoreCache)
                            ? input.platform.d2h_bw()
                            : input.platform.h2d_bw();
    plan.io_seconds[i] =
        io_task_seconds(input.io_bytes[i], 1, link, input.per_thread_copy_bw);
    t_gen = std::max(t_gen, plan.io_seconds[i]);
  }
  if (input.disk_bytes > 0.0) {
    // Uncontrolled frameworks give the disk reader a single thread too.
    plan.disk_threads = 1;
    plan.inter_op_total += 1;
    plan.disk_seconds = io_task_seconds(input.disk_bytes, 1, disk_bw(input),
                                        input.per_thread_copy_bw);
    t_gen = std::max(t_gen, plan.disk_seconds);
  }
  plan.t_gen = t_gen;
  plan.valid = true;
  return plan;
}

}  // namespace lmo::parallel
