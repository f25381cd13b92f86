// Sample statistics for the benchmark's timings. Percentiles use the
// repo's one implementation (lmo::telemetry::percentile: linear
// interpolation between closest ranks).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// p-th percentile (p in [0, 100]) of unsorted samples; NaN when empty.
double percentile(const std::vector<double>& samples, double p);
double median(const std::vector<double>& samples);

/// Samples that must lie beyond a percentile for it to be reported as
/// supported.
inline constexpr double kMinSamplesBeyond = 10.0;

/// A percentile p is supported by n samples when at least
/// kMinSamplesBeyond of them lie beyond it: n * (1 - p/100) >= 10. So p90
/// needs 100 samples and p99 needs 1000.
bool supports_percentile(std::size_t n, double p);

/// Highest whole percentile in [1, 99] the sample supports under the rule
/// above; 0 when none is (fewer than about 10 samples).
int highest_supported_percentile(std::size_t n);

}  // namespace perfbench
