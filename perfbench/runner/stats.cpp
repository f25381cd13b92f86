#include "stats.hpp"

#include <cmath>

#include "lmo/telemetry/percentile.hpp"

namespace perfbench {

double percentile(const std::vector<double>& samples, double p) {
  return lmo::telemetry::percentile(samples, p / 100.0);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

bool supports_percentile(std::size_t n, double p) {
  // The tolerance keeps exact boundaries (100 samples at p90) supported
  // despite 1 - 0.9 not being exact in binary.
  return static_cast<double>(n) * (1.0 - p / 100.0) >=
         kMinSamplesBeyond - 1e-9;
}

int highest_supported_percentile(std::size_t n) {
  for (int p = 99; p > 0; --p) {
    if (supports_percentile(n, p)) return p;
  }
  return 0;
}

}  // namespace perfbench
