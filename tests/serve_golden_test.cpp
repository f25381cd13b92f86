// Golden values for the serving simulator. Each literal below was produced
// by the simulator as it stood before its scheduler events, suspend paths
// and outcome writers were each merged into one; a literal that moved on
// purpose says why next to it.
//
// Every case pins three FNV-1a hashes: the registry snapshot JSON, the
// trace JSON and the per-request outcomes (every field, doubles by bit
// pattern). Each case also asserts that the mechanism it is named after
// fired, so no literal pins a run that never exercised it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"

namespace lmo::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a(const std::string& text) {
  return fnv1a(kFnvOffset, text.data(), text.size());
}

template <typename T>
std::uint64_t mix(std::uint64_t hash, T value) {
  return fnv1a(hash, &value, sizeof(value));
}

std::uint64_t hash_outcomes(const std::vector<RequestOutcome>& outcomes) {
  std::uint64_t hash = kFnvOffset;
  for (const RequestOutcome& o : outcomes) {
    hash = mix(hash, o.id);
    hash = mix(hash, o.ttft);
    hash = mix(hash, o.latency);
    hash = mix(hash, o.tokens);
    hash = mix(hash, o.attempts);
    hash = mix(hash, o.preemptions);
    hash = mix(hash, static_cast<std::uint8_t>(o.completed));
    hash = mix(hash, static_cast<std::uint8_t>(o.met_deadline));
    hash = mix(hash, static_cast<std::uint8_t>(o.shed));
  }
  return hash;
}

struct Golden {
  std::uint64_t metrics = 0;
  std::uint64_t trace = 0;
  std::uint64_t outcomes = 0;
};

struct Served {
  ServeMetrics metrics;
  telemetry::MetricsSnapshot snapshot;
  Golden hashes;
};

Served run(const perfmodel::Policy& policy, const hw::Platform& platform,
           const std::vector<Request>& requests, const ServeConfig& config) {
  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace;
  trace.enable();
  Served out;
  out.metrics = simulate_serving(model::ModelSpec::opt_13b(), policy,
                                 platform, requests, config, &registry,
                                 &trace);
  trace.disable();
  out.snapshot = registry.snapshot();
  out.hashes = {fnv1a(out.snapshot.to_json()), fnv1a(trace.to_json()),
                hash_outcomes(out.metrics.outcomes)};
  return out;
}

void expect_golden(const Served& actual, const Golden& expected) {
  EXPECT_EQ(actual.hashes.metrics, expected.metrics) << "registry snapshot";
  EXPECT_EQ(actual.hashes.trace, expected.trace) << "trace";
  EXPECT_EQ(actual.hashes.outcomes, expected.outcomes) << "outcomes";
}

void add_corruption(ServeConfig& config, double at, std::int64_t id) {
  config.events.push_back({at, ServeEventKind::kCorruption, id});
}

void add_crash(ServeConfig& config, double at) {
  config.events.push_back({at, ServeEventKind::kCrash, -1});
}

// -- workloads -------------------------------------------------------------

RequestProfile quick_profile(double rate) {
  RequestProfile profile;
  profile.arrival_rate = rate;
  profile.prompt_mean = 32;
  profile.prompt_min = 8;
  profile.prompt_max = 128;
  profile.gen_mean = 16;
  profile.gen_min = 4;
  profile.gen_max = 64;
  return profile;
}

/// Half the weights offloaded, 4-bit weights and KV.
perfmodel::Policy offload_policy() {
  perfmodel::Policy policy;
  policy.weights_on_gpu = 0.5;
  policy.attention_on_cpu = false;
  policy.activations_on_gpu = 1.0;
  policy.weight_bits = 4;
  policy.kv_bits = 4;
  policy.parallelism_control = true;
  return policy;
}

/// Device-resident 4-bit weights with 8-bit KV (the overload drill's
/// policy).
perfmodel::Policy resident_policy() {
  perfmodel::Policy policy = offload_policy();
  policy.weights_on_gpu = 1.0;
  policy.kv_bits = 8;
  return policy;
}

ServeConfig preempting_config() {
  ServeConfig config;
  config.max_batch = 2;
  config.preempt = true;
  config.preempt_wait_seconds = 0.5;
  config.max_preemptions_per_request = 2;
  return config;
}

/// Preemption under `verify`: the corruption cases need sessions in both
/// the active and the suspended set.
ServeConfig corruption_config(integrity::VerifyPolicy verify) {
  ServeConfig config = preempting_config();
  config.integrity.policy = verify;
  config.ckpt_interval_tokens = 8;
  return config;
}

const hw::Platform kA100 = hw::Platform::a100_single();

// -- cases -----------------------------------------------------------------

TEST(ServeGolden, StaticBatching) {
  ServeConfig config;
  config.max_batch = 8;
  config.batching = Batching::kStatic;
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(2.0), 30, 5), config);
  EXPECT_EQ(r.metrics.completed, 30u);
  expect_golden(r, {0x6fcf943ec26d00e8ull,
                    0x675df25899a2a7a8ull,
                    0xcbff84f52e3533ceull});
}

TEST(ServeGolden, ContinuousBatchingWithChunkedPrefill) {
  ServeConfig config;
  config.max_batch = 8;
  config.prefill_chunk = 16;
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(4.0), 30, 5), config);
  EXPECT_EQ(r.metrics.completed, 30u);
  expect_golden(r, {0x71bc912d209bad39ull,
                    0xd80da184d49225efull,
                    0x4de89b1f02b56549ull});
}

TEST(ServeGolden, DeadlineAndRetries) {
  ServeConfig config;
  config.max_batch = 4;
  config.deadline_seconds = 4.0;
  config.max_retries = 1;
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(8.0), 40, 3), config);
  EXPECT_GT(r.metrics.retries, 0u);
  EXPECT_GT(r.metrics.deadline_misses, r.metrics.retries);
  expect_golden(r, {0x0c26fb5cb6804ad4ull,
                    0xca4186960b6aa92eull,
                    0x6156b322da43d300ull});
}

TEST(ServeGolden, FaultWindowAndAdaptiveControl) {
  ServeConfig config;
  config.max_batch = 8;
  config.adaptive.enabled = true;
  config.adaptive.window_steps = 4;
  config.fault_windows.push_back(FaultWindow{2.0, 12.0, 0.25});
  const Served r = run(offload_policy(), hw::Platform::rtx4090_desktop(),
                       generate_requests(quick_profile(2.0), 30, 2024), config);
  EXPECT_GT(r.snapshot.counter("parallel.replan.applied"), 0u);
  expect_golden(r, {0x0b7ba1a202915fcdull,
                    0xd83434e26e53d83cull,
                    0xea7851a6464c444cull});
}

TEST(ServeGolden, Preempt) {
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(20.0), 40, 11),
                       preempting_config());
  EXPECT_GT(r.metrics.preemptions, 0u);
  EXPECT_EQ(r.metrics.completed, 40u);
  expect_golden(r, {0x0a2f31c022702501ull,
                    0x4bb8660c995c6f2aull,
                    0xbd217610a3ecdbe6ull});
}

TEST(ServeGolden, PreemptWithPrefixSharing) {
  SharedPrefixProfile profile;
  profile.base.arrival_rate = 8.0;
  profile.num_templates = 3;
  profile.template_tokens = 96;
  ServeConfig config;
  config.max_batch = 8;
  config.prefill_chunk = 32;
  config.preempt = true;
  config.preempt_wait_seconds = 0.5;
  config.prefix_share = true;
  const Served r =
      run(offload_policy(), kA100,
          generate_shared_prefix_requests(profile, 60, 42), config);
  EXPECT_GT(r.metrics.preemptions, 0u);
  EXPECT_GT(r.metrics.prefix_hit_tokens, 0u);
  expect_golden(r, {0x5358c92d5318216full,
                    0xebf5677cf2223dbdull,
                    0xe6ec66d5f16627a5ull});
}

TEST(ServeGolden, OverloadBurst) {
  BurstProfile profile;
  profile.base.arrival_rate = 0.5;
  profile.base.prompt_mean = 64;
  profile.base.gen_mean = 48;
  profile.base.gen_max = 128;
  profile.burst_rate = 8.0;
  profile.burst_start = 10.0;
  profile.burst_duration = 30.0;
  profile.ramp_seconds = 5.0;
  profile.num_priorities = 3;
  ServeConfig config;
  config.max_batch = 8;
  config.deadline_seconds = 30.0;
  config.admission = overload::AdmissionPolicy::kDeadlineShed;
  config.max_queue = 24;
  config.overload.enabled = true;
  config.overload.kv_pool_bytes = std::size_t{10240} << 10;
  const Served r = run(resident_policy(), kA100,
                       generate_burst_requests(profile, 140, 42), config);
  EXPECT_GT(r.metrics.shed, 0u);
  EXPECT_GT(r.metrics.rejected + r.metrics.overload_preemptions, 0u);
  EXPECT_GT(r.metrics.overload_escalations, 0u);
  expect_golden(r, {0x2742990a4d17e712ull,
                    0xa5016b1d847460ffull,
                    0x45dea639d05486a8ull});
}

TEST(ServeGolden, DetectedCorruptionOnActiveAndSuspendedRequests) {
  ServeConfig config = corruption_config(integrity::VerifyPolicy::kAlways);
  add_corruption(config, 40.0, 0);  // mid-decode, active
  add_corruption(config, 30.0, 1);  // swapped out at 3.8 s, back at 51 s
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(20.0), 12, 11), config);
  EXPECT_EQ(r.metrics.corruption_detected, 2u);
  EXPECT_GT(r.metrics.rollback_tokens, 0u);
  expect_golden(r, {0x605c5af9d91c5304ull,
                    0x8f8fc49264645c0full,
                    0xa9bccbe110948b51ull});
}

TEST(ServeGolden, CorruptionUnderVerifyOff) {
  ServeConfig config = corruption_config(integrity::VerifyPolicy::kOff);
  // Without the verify charge the steps are shorter than under verify=always.
  add_corruption(config, 15.0, 0);   // active from 9.6 s to 22.5 s
  add_corruption(config, 10.0, 1);   // swapped out from 1.9 s to 22.5 s
  add_corruption(config, 0.0, 999);  // names no request: inert
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(20.0), 12, 11), config);
  EXPECT_EQ(r.metrics.corruption_detected, 0u);
  EXPECT_EQ(r.metrics.corruption_undetected, 2u);
  EXPECT_EQ(r.metrics.rollback_tokens, 0u);
  // Moved on purpose: the old simulator also counted the event for request
  // 999 in integrity.corruption.undetected (3 instead of 2; snapshot hash
  // 0x8237ee504a00d341). Trace and outcomes are unchanged.
  expect_golden(r, {0x9e53385afc435c4cull,
                    0xff990399b8287b12ull,
                    0xc8eb8af4bb7e0c8bull});
}

TEST(ServeGolden, TwoCrashes) {
  ServeConfig config;
  config.max_batch = 8;
  config.ckpt_interval_tokens = 8;
  add_crash(config, 2.0);
  add_crash(config, 4.0);
  config.recover_disk_gbps = 1.0;
  config.recover_spill_bytes = 1'000'000'000;
  const Served r = run(offload_policy(), kA100,
                       generate_requests(quick_profile(4.0), 20, 7), config);
  EXPECT_EQ(r.metrics.crashes, 2u);
  EXPECT_GT(r.metrics.crash_rolled_back_tokens, 0u);
  expect_golden(r, {0x84d7940a1c78f7c8ull,
                    0xeac655ccaf00167eull,
                    0xdccf720b0477ad83ull});
}

}  // namespace
}  // namespace lmo::serve
