// Unit tests for the benchmark's own arithmetic: trace folding (self time
// by thread row and phase), the percentile-support rule and host-speed
// scaling.
#include <gtest/gtest.h>

#include <vector>

#include "fold.hpp"
#include "probe.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using lmo::telemetry::TraceEvent;

TraceEvent B(int tid, const char* name, double ts) {
  TraceEvent e;
  e.name = name;
  e.phase = 'B';
  e.tid = tid;
  e.ts_us = ts;
  return e;
}

TraceEvent E(int tid, const char* name, double ts) {
  TraceEvent e = B(tid, name, ts);
  e.phase = 'E';
  return e;
}

// Main thread 0 runs one step and one begin; workers 1 and 2 load
// weights inside the step, inside the begin, and between the two.
std::vector<TraceEvent> synthetic_capture() {
  return {
      B(0, "bench.step", 0),   B(0, "decode_step", 1), B(0, "compute", 2),
      B(1, "load_weight", 3),  B(1, "dequantize", 4),  E(0, "compute", 5),
      B(0, "load_weight", 6),  B(0, "dequantize", 7),  E(1, "dequantize", 8),
      E(0, "dequantize", 9),   E(0, "load_weight", 10), E(1, "load_weight", 12),
      E(0, "decode_step", 20), E(0, "bench.step", 21), B(2, "load_weight", 30),
      E(2, "load_weight", 31), B(0, "bench.begin", 40), B(0, "prefill", 41),
      B(0, "compute", 42),     E(0, "compute", 44),    B(1, "load_weight", 45),
      E(1, "load_weight", 46), E(0, "prefill", 50),    E(0, "bench.begin", 52),
  };
}

TEST(TraceFold, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  TraceFold fold(/*main_tid=*/0);
  fold.add(synthetic_capture());
  EXPECT_EQ(fold.unmatched(), 0);

  const SpanStat step = fold.get(Row::kMain, "bench.step", "bench.step");
  EXPECT_DOUBLE_EQ(step.total_us, 21);
  EXPECT_DOUBLE_EQ(step.self_us, 2);  // decode_step covers 1..20
  const SpanStat decode = fold.get(Row::kMain, "bench.step", "decode_step");
  EXPECT_DOUBLE_EQ(decode.total_us, 19);
  EXPECT_DOUBLE_EQ(decode.self_us, 12);  // minus compute 3, load_weight 4
  const SpanStat load = fold.get(Row::kMain, "bench.step", "load_weight");
  EXPECT_DOUBLE_EQ(load.total_us, 4);
  EXPECT_DOUBLE_EQ(load.self_us, 2);
  EXPECT_DOUBLE_EQ(
      fold.get(Row::kMain, "bench.step", "dequantize").self_us, 2);
}

TEST(TraceFold, WorkerRowsTakeThePhaseOfTheMainSpanAroundTheirStart) {
  TraceFold fold(0);
  fold.add(synthetic_capture());

  // Worker 1's load inside the step overlaps main-row spans, but worker
  // time never counts as a main-row child.
  const SpanStat in_step = fold.get(Row::kWorker, "bench.step", "load_weight");
  EXPECT_DOUBLE_EQ(in_step.total_us, 9);
  EXPECT_DOUBLE_EQ(in_step.self_us, 5);
  EXPECT_EQ(in_step.count, 1);
  EXPECT_DOUBLE_EQ(
      fold.get(Row::kWorker, "bench.step", "dequantize").total_us, 4);
  EXPECT_DOUBLE_EQ(
      fold.get(Row::kWorker, "bench.begin", "load_weight").total_us, 1);
  EXPECT_DOUBLE_EQ(fold.get(Row::kWorker, "", "load_weight").total_us, 1);

  EXPECT_DOUBLE_EQ(fold.top_level_us(Row::kWorker, "bench.step"), 9);
  EXPECT_DOUBLE_EQ(fold.top_level_us(Row::kWorker, "bench.begin"), 1);
  EXPECT_DOUBLE_EQ(fold.top_level_us(Row::kMain, "bench.begin"), 12);
  EXPECT_DOUBLE_EQ(fold.get(Row::kMain, "bench.begin", "compute").total_us, 2);
  EXPECT_DOUBLE_EQ(fold.get(Row::kMain, "bench.step", "compute").total_us, 3);
}

TEST(TraceFold, NestedSameNameSpansPairInnermostFirst) {
  TraceFold fold(0);
  fold.add({B(0, "compute", 0), B(0, "compute", 1), E(0, "compute", 2),
            E(0, "compute", 5)});
  const SpanStat s = fold.get(Row::kMain, "compute", "compute");
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.total_us, 1 + 5);
  EXPECT_DOUBLE_EQ(s.self_us, 1 + 4);
}

TEST(TraceFold, UnmatchedEventsAreCountedNotFolded) {
  TraceFold fold(0);
  fold.add({E(0, "compute", 1), B(0, "load_cache", 2),
            B(0, "store_cache", 3), E(0, "load_cache", 4)});
  // The stray E, and store_cache opened inside load_cache but never closed.
  EXPECT_EQ(fold.unmatched(), 2);
  EXPECT_DOUBLE_EQ(fold.get(Row::kMain, "load_cache", "load_cache").self_us,
                   2);
  EXPECT_EQ(fold.get(Row::kMain, "load_cache", "store_cache").count, 0);
}

TEST(TraceFold, CapturesAccumulate) {
  TraceFold fold(0);
  fold.add(synthetic_capture());
  fold.add(synthetic_capture());
  EXPECT_DOUBLE_EQ(fold.get(Row::kMain, "bench.step", "decode_step").self_us,
                   24);
  EXPECT_EQ(fold.get(Row::kWorker, "bench.step", "load_weight").count, 2);
}

TEST(Stats, PercentileSupportNeedsTenSamplesBeyond) {
  EXPECT_TRUE(supports_percentile(100, 90));
  EXPECT_FALSE(supports_percentile(99, 90));
  EXPECT_TRUE(supports_percentile(1000, 99));
  EXPECT_FALSE(supports_percentile(999, 99));
  EXPECT_TRUE(supports_percentile(20, 50));
  EXPECT_FALSE(supports_percentile(19, 50));
}

TEST(Stats, HighestSupportedPercentile) {
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(5000), 99);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(150), 93);
  EXPECT_EQ(highest_supported_percentile(50), 80);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(10), 0);
  EXPECT_EQ(highest_supported_percentile(0), 0);
}

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  const std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 3.7);
}

TEST(Probe, ScaleMapsTheMeanProbeToTheReference) {
  const double ref = kReferenceProbeSeconds;
  EXPECT_DOUBLE_EQ(speed_scale(ref, ref).factor, 1.0);
  EXPECT_DOUBLE_EQ(speed_scale(1.25 * ref, 1.25 * ref).factor, 0.8);
  EXPECT_DOUBLE_EQ(speed_scale(ref, 1.5 * ref).factor, 0.8);
  EXPECT_FALSE(speed_scale(1.25 * ref, 1.25 * ref).clamped);
  EXPECT_GT(host_probe_seconds(), 0.0);
}

TEST(Probe, ScaleIsClampedToTheDriftRange) {
  const double ref = kReferenceProbeSeconds;
  // A host faster than the reference is never scaled up...
  EXPECT_DOUBLE_EQ(speed_scale(0.5 * ref, 0.5 * ref).factor, 1.0);
  EXPECT_FALSE(speed_scale(0.5 * ref, 0.5 * ref).clamped);
  // ...and a stalled probe cannot make a call look almost free.
  const SpeedScale stalled = speed_scale(ref, 99 * ref);
  EXPECT_DOUBLE_EQ(stalled.factor, 1.0 / kMaxSlowdown);
  EXPECT_TRUE(stalled.clamped);
}

}  // namespace
}  // namespace perfbench
