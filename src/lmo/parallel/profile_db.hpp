// Offline profiling database (paper §4.2: "we use offline profiling and
// collect the execution times of those operations with various intra-op
// parallelism ... the profiling results are repeatedly used during the
// online LLM inference").
//
// Keys are (op name, intra-op threads). The table is filled at run time by
// AdaptiveController::scaled_profiles(): the analytic per-op times scaled by
// the compute/predicted ratio measured from the runtime's spans. The search
// uses an entry in place of the analytic curve wherever one exists.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>

namespace lmo::parallel {

class ProfileDB {
 public:
  void record(const std::string& op_name, int intra_threads, double seconds);

  bool has(const std::string& op_name, int intra_threads) const;

  /// Exact lookup; throws CheckError when missing.
  double lookup(const std::string& op_name, int intra_threads) const;

  std::size_t size() const { return table_.size(); }

 private:
  std::map<std::pair<std::string, int>, double> table_;
};

}  // namespace lmo::parallel
