#include "lmo/parallel/profile_db.hpp"

#include "lmo/util/check.hpp"

namespace lmo::parallel {

void ProfileDB::record(const std::string& op_name, int intra_threads,
                       double seconds) {
  LMO_CHECK_GE(intra_threads, 1);
  LMO_CHECK_GE(seconds, 0.0);
  table_[{op_name, intra_threads}] = seconds;
}

bool ProfileDB::has(const std::string& op_name, int intra_threads) const {
  return table_.count({op_name, intra_threads}) != 0;
}

double ProfileDB::lookup(const std::string& op_name,
                         int intra_threads) const {
  auto it = table_.find({op_name, intra_threads});
  LMO_CHECK_MSG(it != table_.end(),
                "no profile for op '" + op_name + "' at " +
                    std::to_string(intra_threads) + " threads");
  return it->second;
}

}  // namespace lmo::parallel
