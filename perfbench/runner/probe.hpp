// Host-speed probe. The benchmark runs on shared vCPUs whose speed drifts:
// while a co-tenant keeps the host busy, the same code runs up to ~1.6x
// slower, in episodes lasting from a fraction of a second to minutes. Raw
// wall-clock figures then differ between runs by more than a regression
// bound. The runner times a fixed kernel before and after every timed
// library call and rescales the call's duration to the speed at which the
// kernel takes kReferenceProbeSeconds. The kernel is part of the
// benchmark, not of the code under test. The scale is clamped to
// [1 / kMaxSlowdown, 1]: it never speeds a call up by more than the drift
// seen on the reference host, and never slows one down.
#pragma once

namespace perfbench {

/// Uncontended duration of one probe on the reference host (4-vCPU Xeon,
/// RelWithDebInfo build).
inline constexpr double kReferenceProbeSeconds = 70e-6;

/// Largest host slowdown the scale corrects.
inline constexpr double kMaxSlowdown = 1.6;

/// Kernel runs behind one host_probe_seconds() reading.
inline constexpr int kProbeReps = 3;

/// Run the probe kernel once (a small L1-resident f32 matrix product) and
/// return its wall time in seconds.
double probe_seconds();

/// Median of kProbeReps probe_seconds() runs: one reading of host speed
/// that a single descheduled run cannot skew.
double host_probe_seconds();

struct SpeedScale {
  double factor = 1.0;    ///< multiplies a measured duration
  bool clamped = false;   ///< the host read slower than kMaxSlowdown
};

/// Scale for a duration measured between two host_probe_seconds()
/// readings: kReferenceProbeSeconds / mean(before, after), clamped to
/// [1 / kMaxSlowdown, 1].
SpeedScale speed_scale(double probe_before, double probe_after);

}  // namespace perfbench
