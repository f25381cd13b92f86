#include "lmo/parallel/interop.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "lmo/util/check.hpp"

namespace lmo::parallel {

InterOpStats run_graph(const model::OpGraph& graph, ThreadPool& pool,
                       int inter_op_parallelism,
                       const std::function<void(model::OpId)>& body) {
  LMO_CHECK_GE(inter_op_parallelism, 1);
  LMO_CHECK(graph.is_acyclic());
  const std::size_t n = graph.size();

  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<int> remaining_deps(n, 0);
  std::vector<model::OpId> ready;
  std::size_t in_flight = 0;
  // Worker callbacks that may still touch this frame's locals: a callback
  // keeps using them (pump, notify) after its op completes, so the frame
  // must not be left until every callback has finished.
  std::size_t callbacks = 0;
  std::size_t completed = 0;
  std::size_t peak = 0;
  std::exception_ptr first_error;

  for (std::size_t i = 0; i < n; ++i) {
    remaining_deps[i] =
        static_cast<int>(graph.predecessors(static_cast<model::OpId>(i)).size());
    if (remaining_deps[i] == 0) ready.push_back(static_cast<model::OpId>(i));
  }

  // Launches as many ready ops as the admission limit allows. Called with
  // the mutex held.
  std::function<void(std::unique_lock<std::mutex>&)> pump =
      [&](std::unique_lock<std::mutex>& lock) {
        while (!ready.empty() &&
               in_flight < static_cast<std::size_t>(inter_op_parallelism) &&
               !first_error) {
          const model::OpId id = ready.back();
          ready.pop_back();
          ++in_flight;
          ++callbacks;
          peak = std::max(peak, in_flight);
          lock.unlock();
          pool.submit([&, id] {
            std::exception_ptr error;
            try {
              body(id);
            } catch (...) {
              error = std::current_exception();
            }
            std::unique_lock<std::mutex> inner(mutex);
            --in_flight;
            ++completed;
            if (error && !first_error) first_error = error;
            if (!error) {
              for (model::OpId succ : graph.successors(id)) {
                if (--remaining_deps[static_cast<std::size_t>(succ)] == 0) {
                  ready.push_back(succ);
                }
              }
            }
            pump(inner);
            --callbacks;
            done_cv.notify_all();
            // `inner` unlocks on destruction; pump() re-acquires internally
            // only via this same path, so no deadlock.
          });
          lock.lock();
        }
      };

  {
    std::unique_lock<std::mutex> lock(mutex);
    pump(lock);
    // callbacks == 0 implies in_flight == 0.
    done_cv.wait(lock, [&] {
      return callbacks == 0 && (completed == n || first_error);
    });
    if (first_error) std::rethrow_exception(first_error);
    LMO_CHECK_EQ(completed, n);
  }

  InterOpStats stats;
  stats.ops_executed = n;
  stats.peak_concurrency = peak;
  return stats;
}

}  // namespace lmo::parallel
