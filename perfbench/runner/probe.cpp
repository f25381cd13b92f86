#include "probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>

namespace perfbench {

double probe_seconds() {
  constexpr int n = 48;
  float a[n * n], b[n * n], c[n * n];
  for (int i = 0; i < n * n; ++i) {
    a[i] = 0.001f * static_cast<float>(i % 7);
    b[i] = 0.002f * static_cast<float>(i % 5);
    c[i] = 0.0f;
  }
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc = c[i * n + j];
        for (int k = 0; k < n; ++k) acc += a[i * n + k] * b[j * n + k];
        c[i * n + j] = acc * 0.5f;
      }
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  volatile float sink = c[n + 1];  // keep the kernel from being elided
  (void)sink;
  return std::chrono::duration<double>(stop - start).count();
}

double host_probe_seconds() {
  std::array<double, kProbeReps> runs{};
  for (double& r : runs) r = probe_seconds();
  std::nth_element(runs.begin(), runs.begin() + kProbeReps / 2, runs.end());
  return runs[kProbeReps / 2];
}

SpeedScale speed_scale(double probe_before, double probe_after) {
  const double raw =
      kReferenceProbeSeconds / (0.5 * (probe_before + probe_after));
  return {std::clamp(raw, 1.0 / kMaxSlowdown, 1.0), raw < 1.0 / kMaxSlowdown};
}

}  // namespace perfbench
