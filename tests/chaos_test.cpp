// Runs every drill of the lmo/chaos table — the drills `lmo chaos
// --profile NAME` runs — and checks that the runner can fail: a drill whose
// fault schedule is cleared must fail its faults-fired invariant, and two
// outcomes with different tokens must be reported as NO.
#include <gtest/gtest.h>

#include <sstream>

#include "lmo/chaos/drill.hpp"

namespace lmo {
namespace {

TEST(Chaos, EveryDrillHolds) {
  ASSERT_FALSE(chaos::drills().empty());
  for (const chaos::Drill& drill : chaos::drills()) {
    std::ostringstream out;
    EXPECT_EQ(chaos::run(drill, out), 0) << out.str();
  }
}

TEST(Chaos, DisarmedDrillsFail) {
  for (chaos::Drill drill : chaos::drills()) {
    if (drill.arms.empty()) continue;
    drill.arms.clear();
    std::ostringstream out;
    EXPECT_EQ(chaos::run(drill, out), 1) << out.str();
    EXPECT_NE(out.str().find(std::string("  NO   ") + chaos::kFaultsFired),
              std::string::npos)
        << drill.name << " passed with its faults disarmed:\n" << out.str();
  }
}

TEST(Chaos, RunnerReportsDifferingTokens) {
  chaos::Drill drill;
  drill.name = "differ";
  for (std::int64_t t : {3, 4}) {
    chaos::Run run;
    run.name = std::to_string(t);
    run.fn = [t](const chaos::Drill&) {
      chaos::Outcome o;
      o.tokens = {{1, 2, t}};
      return o;
    };
    drill.runs.push_back(run);
  }
  drill.invariants = {chaos::same_tokens("3", "4")};
  std::ostringstream out;
  EXPECT_EQ(chaos::run(drill, out), 1);
  EXPECT_NE(out.str().find("  NO   tokens identical: 3 == 4"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace lmo
