// Tests for the online-serving extension: workload generation and the
// step-level serving simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/util/check.hpp"

namespace lmo::serve {
namespace {

using util::CheckError;

RequestProfile quick_profile(double rate = 2.0) {
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

perfmodel::Policy serving_policy() {
  perfmodel::Policy p;
  p.weights_on_gpu = 0.5;
  p.attention_on_cpu = false;
  p.activations_on_gpu = 1.0;
  p.kv_bits = 4;
  p.weight_bits = 4;
  p.parallelism_control = true;
  return p;
}

// ------------------------------------------------------------- generator --

TEST(WorkloadGen, DeterministicAndSorted) {
  const auto a = generate_requests(quick_profile(), 50, 7);
  const auto b = generate_requests(quick_profile(), 50, 7);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
}

TEST(WorkloadGen, LengthsWithinBounds) {
  const auto profile = quick_profile();
  for (const auto& r : generate_requests(profile, 300, 3)) {
    EXPECT_GE(r.prompt_len, profile.prompt_min);
    EXPECT_LE(r.prompt_len, profile.prompt_max);
    EXPECT_GE(r.gen_len, profile.gen_min);
    EXPECT_LE(r.gen_len, profile.gen_max);
  }
}

TEST(WorkloadGen, ArrivalRateApproximatelyPoisson) {
  const auto requests = generate_requests(quick_profile(4.0), 2000, 11);
  const double horizon = requests.back().arrival_seconds;
  const double rate = 2000.0 / horizon;
  EXPECT_NEAR(rate, 4.0, 0.5);
}

TEST(WorkloadGen, ValidatesProfile) {
  RequestProfile bad = quick_profile();
  bad.arrival_rate = 0.0;
  EXPECT_THROW(generate_requests(bad, 10, 1), CheckError);
  bad = quick_profile();
  bad.gen_min = 100;  // min > mean
  EXPECT_THROW(generate_requests(bad, 10, 1), CheckError);
  EXPECT_THROW(generate_requests(quick_profile(), 0, 1), CheckError);
}

TEST(WorkloadGen, CsvRoundTripAndSorting) {
  const auto original = generate_requests(quick_profile(), 20, 17);
  requests_to_csv(original, "serve_trace_test.csv");
  const auto loaded = requests_from_csv("serve_trace_test.csv");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(loaded[i].arrival_seconds, original[i].arrival_seconds,
                1e-6);
    EXPECT_EQ(loaded[i].prompt_len, original[i].prompt_len);
    EXPECT_EQ(loaded[i].gen_len, original[i].gen_len);
    EXPECT_EQ(loaded[i].id, static_cast<std::int64_t>(i));
  }
  std::remove("serve_trace_test.csv");

  // Unsorted text is sorted on load; bad values rejected.
  const auto sorted = requests_from_csv_text(
      "arrival_seconds,prompt_len,gen_len\n5.0,8,4\n1.0,16,2\n");
  EXPECT_EQ(sorted[0].prompt_len, 16);
  EXPECT_EQ(sorted[1].prompt_len, 8);
  EXPECT_THROW(requests_from_csv_text(
                   "arrival_seconds,prompt_len,gen_len\n1.0,0,4\n"),
               CheckError);
  EXPECT_THROW(requests_from_csv("/nonexistent.csv"), CheckError);
}

// -------------------------------------------------------------- simulator --

TEST(ServeSim, CompletesEveryRequest) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 40, 5);
  ServeConfig config;
  config.max_batch = 8;
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  EXPECT_EQ(metrics.completed, 40u);
  EXPECT_GT(metrics.duration, requests.back().arrival_seconds);
  EXPECT_GT(metrics.token_throughput, 0.0);
  for (const auto& outcome : metrics.outcomes) {
    EXPECT_GT(outcome.ttft, 0.0);
    EXPECT_GE(outcome.latency, outcome.ttft);
    EXPECT_GT(outcome.tokens, 0);
  }
  EXPECT_GE(metrics.ttft_p95, metrics.ttft_p50);
  EXPECT_GE(metrics.latency_p95, metrics.latency_p50);
  EXPECT_GT(metrics.mean_batch_occupancy, 0.0);
  EXPECT_LE(metrics.mean_batch_occupancy, 8.0 + 1e-9);
}

TEST(ServeSim, ContinuousBatchingBeatsStaticOnTtft) {
  // Static batching makes late arrivals wait for the whole running batch
  // to drain; continuous admission cuts tail TTFT.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(3.0), 60, 9);
  ServeConfig continuous;
  continuous.max_batch = 8;
  continuous.batching = Batching::kContinuous;
  ServeConfig static_batching = continuous;
  static_batching.batching = Batching::kStatic;

  const auto platform = hw::Platform::a100_single();
  const auto m_cont = simulate_serving(spec, serving_policy(), platform,
                                       requests, continuous);
  const auto m_static = simulate_serving(spec, serving_policy(), platform,
                                         requests, static_batching);
  EXPECT_EQ(m_cont.completed, m_static.completed);
  EXPECT_LT(m_cont.ttft_p95, m_static.ttft_p95);
}

TEST(ServeSim, LargerBatchRaisesThroughputUnderLoad) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(50.0), 80, 13);
  ServeConfig small;
  small.max_batch = 2;
  ServeConfig large;
  large.max_batch = 32;
  const auto platform = hw::Platform::a100_single();
  const auto m_small =
      simulate_serving(spec, serving_policy(), platform, requests, small);
  const auto m_large =
      simulate_serving(spec, serving_policy(), platform, requests, large);
  EXPECT_GT(m_large.token_throughput, m_small.token_throughput * 1.5);
}

TEST(ServeSim, IdleGapsAreSkippedNotBilled) {
  // Two requests far apart: the engine idles in between, so the second
  // request's TTFT is small even though the trace duration is long.
  const auto spec = model::ModelSpec::opt_13b();
  std::vector<Request> requests = {
      {0, 0.0, 32, 4},
      {1, 1000.0, 32, 4},
  };
  ServeConfig config;
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  EXPECT_GT(metrics.duration, 1000.0);
  EXPECT_LT(metrics.outcomes[1].ttft, 10.0);
}

TEST(ServeSim, ChunkedPrefillCutsTailTtftUnderMixedLoad) {
  // A few very long prompts among short ones: monolithic prefill stalls
  // running decodes for the whole long prompt; chunking amortizes it.
  const auto spec = model::ModelSpec::opt_13b();
  RequestProfile profile = quick_profile(4.0);
  profile.prompt_mean = 96;
  profile.prompt_max = 512;
  const auto requests = generate_requests(profile, 60, 21);

  ServeConfig monolithic;
  monolithic.max_batch = 8;
  ServeConfig chunked = monolithic;
  chunked.prefill_chunk = 32;

  const auto platform = hw::Platform::a100_single();
  const auto m_mono =
      simulate_serving(spec, serving_policy(), platform, requests,
                       monolithic);
  const auto m_chunk = simulate_serving(spec, serving_policy(), platform,
                                        requests, chunked);
  EXPECT_EQ(m_chunk.completed, m_mono.completed);
  // Chunking must not cost much aggregate throughput...
  EXPECT_GT(m_chunk.token_throughput, m_mono.token_throughput * 0.7);
  // ... and warming requests no longer block the engine wholesale, so the
  // per-token pace of running requests (latency spread) tightens. Verify
  // every request still produced its tokens with sane timings.
  for (const auto& outcome : m_chunk.outcomes) {
    EXPECT_GT(outcome.ttft, 0.0);
    EXPECT_GE(outcome.latency, outcome.ttft);
  }
}

TEST(ServeSim, ChunkedPrefillValidated) {
  ServeConfig config;
  config.prefill_chunk = -1;
  EXPECT_THROW(config.validate(), CheckError);
}

TEST(ServeSim, ValidatesRobustnessConfig) {
  ServeConfig config;
  config.deadline_seconds = -1.0;
  EXPECT_THROW(config.validate(), CheckError);

  config = ServeConfig{};
  config.max_retries = -1;
  EXPECT_THROW(config.validate(), CheckError);

  // Retries without a deadline are meaningless: nothing ever aborts.
  config = ServeConfig{};
  config.max_retries = 2;
  EXPECT_THROW(config.validate(), CheckError);
  config.deadline_seconds = 10.0;
  EXPECT_NO_THROW(config.validate());

  config = ServeConfig{};
  config.fault_windows.push_back(FaultWindow{5.0, 5.0, 0.5});  // empty
  EXPECT_THROW(config.validate(), CheckError);
  config.fault_windows = {FaultWindow{0.0, 5.0, 0.0}};  // zero bandwidth
  EXPECT_THROW(config.validate(), CheckError);
  config.fault_windows = {FaultWindow{0.0, 5.0, 1.5}};  // faster than nominal
  EXPECT_THROW(config.validate(), CheckError);
  config.fault_windows = {FaultWindow{0.0, 5.0, 0.5}};
  EXPECT_NO_THROW(config.validate());

  config = ServeConfig{};
  config.events.push_back({-1.0, ServeEventKind::kCrash});  // negative time
  EXPECT_THROW(config.validate(), CheckError);
  config.events = {{5.0, ServeEventKind::kCrash}};
  config.recover_disk_gbps = 0.0;  // scheduled crash needs a replay rate
  EXPECT_THROW(config.validate(), CheckError);
  config.recover_disk_gbps = 2.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(ServeSim, CrashRollsBackAndChargesRecoveryStall) {
  // An engine-wide crash mid-run: every active request rolls back to its
  // last checkpoint-interval boundary and re-decodes, the clock pays the
  // WAL-replay/restore stall, and every request still completes.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 30, 5);
  const auto platform = hw::Platform::a100_single();
  ServeConfig clean;
  clean.max_batch = 8;
  clean.batching = Batching::kContinuous;
  const auto m_clean = simulate_serving(spec, serving_policy(), platform,
                                        requests, clean);

  ServeConfig config = clean;
  config.ckpt_interval_tokens = 16;
  config.events = {{m_clean.duration * 0.5, ServeEventKind::kCrash}};
  config.recover_disk_gbps = 2.0;
  config.recover_spill_bytes = 8'000'000'000;  // 8 GB at 2 GB/s -> 4 s stall
  const auto metrics = simulate_serving(spec, serving_policy(), platform,
                                        requests, config);
  EXPECT_EQ(metrics.crashes, 1u);
  EXPECT_DOUBLE_EQ(metrics.crash_recovery_seconds, 4.0);
  EXPECT_GT(metrics.crash_rolled_back_tokens, 0u);
  EXPECT_EQ(metrics.completed, 30u);
  // Re-decoding plus the stall can only lengthen the run.
  EXPECT_GT(metrics.duration, m_clean.duration);

  // A crash scheduled after the run drains never fires: the loop exits
  // first, so not even the crash counter moves.
  ServeConfig late = clean;
  late.events = {{m_clean.duration + 100.0, ServeEventKind::kCrash}};
  late.recover_spill_bytes = 1 << 20;
  const auto m_late = simulate_serving(spec, serving_policy(), platform,
                                       requests, late);
  EXPECT_EQ(m_late.crashes, 0u);
  EXPECT_EQ(m_late.crash_rolled_back_tokens, 0u);
  EXPECT_EQ(m_late.completed, 30u);
}

TEST(ServeSim, CrashMetricsFlowThroughRegistry) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 20, 7);
  ServeConfig config;
  config.max_batch = 8;
  config.batching = Batching::kContinuous;
  config.events = {{2.0, ServeEventKind::kCrash},
                   {4.0, ServeEventKind::kCrash}};
  config.recover_disk_gbps = 1.0;
  config.recover_spill_bytes = 1'000'000'000;  // 1 s per recovery
  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace;
  trace.enable();
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config, &registry, &trace);
  trace.disable();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("serve.crash.total"), metrics.crashes);
  EXPECT_EQ(snap.counter("serve.crash.rollback.tokens"),
            metrics.crash_rolled_back_tokens);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.crash.recovery_seconds"),
                   metrics.crash_recovery_seconds);
  EXPECT_EQ(metrics.crashes, 2u);
  EXPECT_DOUBLE_EQ(metrics.crash_recovery_seconds, 2.0);

  // Each recovery stall is marked on the trace.
  std::size_t crash_spans = 0;
  for (const auto& ev : trace.events()) {
    if (ev.name == "crash_recover") ++crash_spans;
  }
  EXPECT_EQ(crash_spans, metrics.crashes);
}

// ------------------------------------------------------- fault windows ---

TEST(ServeSim, DefaultRobustnessConfigLeavesMetricsUnchanged) {
  // deadline 0, no windows: byte-identical behavior to the seed simulator,
  // with goodput == token throughput and full SLO attainment.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 30, 5);
  ServeConfig config;
  config.max_batch = 8;
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  EXPECT_EQ(metrics.completed, 30u);
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_EQ(metrics.retries, 0u);
  EXPECT_DOUBLE_EQ(metrics.slo_attainment, 1.0);
  EXPECT_DOUBLE_EQ(metrics.goodput, metrics.token_throughput);
  for (const auto& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed);
    EXPECT_TRUE(outcome.met_deadline);
    EXPECT_EQ(outcome.attempts, 1);
  }
}

TEST(ServeSim, FaultWindowStretchesWorkInsideIt) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(3.0), 40, 9);
  ServeConfig clean;
  clean.max_batch = 8;
  ServeConfig degraded = clean;
  // Halve the bandwidth for a long stretch of the trace.
  degraded.fault_windows.push_back(FaultWindow{0.0, 1e9, 0.5});

  const auto platform = hw::Platform::a100_single();
  const auto m_clean =
      simulate_serving(spec, serving_policy(), platform, requests, clean);
  const auto m_degraded =
      simulate_serving(spec, serving_policy(), platform, requests, degraded);
  EXPECT_EQ(m_degraded.completed, m_clean.completed);
  EXPECT_GT(m_degraded.duration, m_clean.duration);
  EXPECT_LT(m_degraded.token_throughput, m_clean.token_throughput);
  // A window covering the whole trace doubles every step exactly, so the
  // makespan lands within the arrival-dominated slack of 2x.
  EXPECT_LE(m_degraded.duration, 2.0 * m_clean.duration + 1e-6);

  // A window strictly *after* the makespan changes nothing.
  ServeConfig late = clean;
  late.fault_windows.push_back(
      FaultWindow{m_clean.duration + 1.0, m_clean.duration + 2.0, 0.1});
  const auto m_late =
      simulate_serving(spec, serving_policy(), platform, requests, late);
  EXPECT_DOUBLE_EQ(m_late.duration, m_clean.duration);
  EXPECT_DOUBLE_EQ(m_late.token_throughput, m_clean.token_throughput);
}

// --------------------------------------------------- deadlines / goodput --

TEST(ServeSim, ImpossibleDeadlineAbortsEveryRequest) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 10, 5);
  ServeConfig config;
  config.max_batch = 4;
  config.deadline_seconds = 1e-6;  // no step fits
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.deadline_misses, 10u);
  EXPECT_EQ(metrics.retries, 0u);
  EXPECT_DOUBLE_EQ(metrics.slo_attainment, 0.0);
  EXPECT_DOUBLE_EQ(metrics.goodput, 0.0);
  for (const auto& outcome : metrics.outcomes) {
    EXPECT_FALSE(outcome.completed);
    EXPECT_FALSE(outcome.met_deadline);
    EXPECT_EQ(outcome.attempts, 1);
  }
}

TEST(ServeSim, RetriesReAdmitAbortedAttempts) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 10, 5);
  ServeConfig config;
  config.max_batch = 4;
  config.deadline_seconds = 1e-6;
  config.max_retries = 2;
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  // Every request burns its full attempt budget: 1 original + 2 retries,
  // all aborted.
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.retries, 20u);
  EXPECT_EQ(metrics.deadline_misses, 30u);
  for (const auto& outcome : metrics.outcomes) {
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_FALSE(outcome.completed);
  }
}

TEST(ServeSim, GenerousDeadlineKeepsGoodputEqualToThroughput) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 20, 5);
  ServeConfig config;
  config.max_batch = 8;
  config.deadline_seconds = 1e9;
  const auto metrics = simulate_serving(spec, serving_policy(),
                                        hw::Platform::a100_single(),
                                        requests, config);
  EXPECT_EQ(metrics.completed, 20u);
  EXPECT_EQ(metrics.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(metrics.slo_attainment, 1.0);
  EXPECT_DOUBLE_EQ(metrics.goodput, metrics.token_throughput);
}

TEST(ServeSim, DegradedWindowCostsGoodputUnderTightDeadlines) {
  // The robustness story in one test: with a tight-but-feasible SLO, a
  // bandwidth-degradation window turns completions into misses — goodput
  // and SLO attainment drop even though the engine keeps producing tokens.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(2.0), 40, 7);
  ServeConfig config;
  config.max_batch = 8;

  // Calibrate a deadline every request meets on clean hardware: the worst
  // clean-run latency plus slack.
  const auto platform = hw::Platform::a100_single();
  const auto clean =
      simulate_serving(spec, serving_policy(), platform, requests, config);
  double worst = 0.0;
  for (const auto& outcome : clean.outcomes) {
    worst = std::max(worst, outcome.latency);
  }
  config.deadline_seconds = worst * 1.05;
  const auto with_slo =
      simulate_serving(spec, serving_policy(), platform, requests, config);
  EXPECT_DOUBLE_EQ(with_slo.slo_attainment, 1.0);

  // Now degrade the middle of the trace hard.
  config.fault_windows.push_back(
      FaultWindow{0.0, clean.duration, 0.25});
  const auto degraded =
      simulate_serving(spec, serving_policy(), platform, requests, config);
  EXPECT_GT(degraded.deadline_misses, 0u);
  EXPECT_LT(degraded.slo_attainment, 1.0);
  EXPECT_LT(degraded.goodput, with_slo.goodput);
}

// ----------------------------------------------------------- telemetry ---

TEST(ServeSim, DefaultMetricsDescribeNoTraceNotPerfectSlo) {
  // A zero-request ServeMetrics must read as "no data": ratio fields are
  // NaN, never a flattering 1.0 SLO attainment.
  const ServeMetrics metrics;
  EXPECT_TRUE(std::isnan(metrics.slo_attainment));
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_TRUE(metrics.outcomes.empty());
}

TEST(ServeSim, RegistrySnapshotAgreesWithReturnedMetrics) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 25, 5);
  ServeConfig config;
  config.max_batch = 8;
  config.deadline_seconds = 1e9;  // generous: everything completes and meets

  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace;
  trace.enable();
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config, &registry, &trace);
  trace.disable();

  // The struct is a materialized view of the registry: every field must
  // equal the corresponding metric read (the docs/observability.md map).
  const auto snap = registry.snapshot();
  std::uint64_t tokens = 0;
  for (const auto& outcome : metrics.outcomes) {
    tokens += static_cast<std::uint64_t>(outcome.tokens);
  }
  EXPECT_EQ(snap.counter("serve.tokens.generated"), tokens);
  EXPECT_EQ(snap.counter("serve.requests.completed"), metrics.completed);
  EXPECT_EQ(snap.counter("serve.requests.deadline_misses"),
            metrics.deadline_misses);
  EXPECT_EQ(snap.counter("serve.requests.retries"), metrics.retries);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.time.duration_seconds"),
                   metrics.duration);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.throughput.tokens_per_second"),
                   metrics.token_throughput);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.throughput.requests_per_second"),
                   metrics.request_throughput);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.goodput.tokens_per_second"),
                   metrics.goodput);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.slo.attainment"),
                   metrics.slo_attainment);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.batch.mean_occupancy"),
                   metrics.mean_batch_occupancy);
  const auto* ttft = snap.find("serve.request.ttft_seconds");
  ASSERT_NE(ttft, nullptr);
  EXPECT_EQ(ttft->count, metrics.completed);
  EXPECT_DOUBLE_EQ(ttft->p50, metrics.ttft_p50);
  EXPECT_DOUBLE_EQ(ttft->p95, metrics.ttft_p95);
  const auto* latency = snap.find("serve.request.latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->p50, metrics.latency_p50);
  EXPECT_DOUBLE_EQ(latency->p95, metrics.latency_p95);

  // Request-lifecycle spans land on the engine pid, one tid per request.
  std::size_t decode_spans = 0;
  std::set<int> tids;
  for (const auto& ev : trace.events()) {
    if (ev.phase != 'X') continue;
    EXPECT_EQ(ev.pid, kServeTracePid);
    tids.insert(ev.tid);
    if (ev.name == "decode") ++decode_spans;
  }
  EXPECT_EQ(decode_spans, metrics.completed);
  EXPECT_EQ(tids.size(), requests.size());

  // A reused (non-fresh) registry is a caller bug, not silent mixing.
  EXPECT_THROW(
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config, &registry),
      CheckError);
}

// ------------------------------------------------------------ preemption --

/// Load that forces preemption decisions: a tiny engine and bursty
/// arrivals, so the queue head routinely out-waits preempt_wait_seconds.
ServeConfig preempting_config() {
  ServeConfig config;
  config.max_batch = 2;
  config.preempt = true;
  config.preempt_wait_seconds = 0.5;
  config.max_preemptions_per_request = 2;
  return config;
}

TEST(ServeSim, PreemptionSwapsButCompletesEveryRequest) {
  // The contract that distinguishes swap-based preemption from abort+retry:
  // a victim's KV is checkpointed and restored, so every preempted request
  // still finishes with its full token count — no recompute, no loss.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(20.0), 40, 11);
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, preempting_config());
  EXPECT_EQ(metrics.completed, 40u);
  EXPECT_GT(metrics.preemptions, 0u);  // the load actually triggered swaps
  // At drain every swap-out has been paired with a swap-in.
  EXPECT_EQ(metrics.preempt_resumes, metrics.preemptions);
  EXPECT_GT(metrics.preempt_swap_seconds, 0.0);

  std::size_t preempted_requests = 0;
  std::size_t outcome_preemptions = 0;
  for (const auto& outcome : metrics.outcomes) {
    EXPECT_TRUE(outcome.completed);
    EXPECT_GT(outcome.tokens, 0);
    EXPECT_LE(outcome.preemptions, 2);  // the per-request cap
    if (outcome.preemptions > 0) {
      ++preempted_requests;
      outcome_preemptions += static_cast<std::size_t>(outcome.preemptions);
    }
  }
  EXPECT_GT(preempted_requests, 0u);
  EXPECT_EQ(outcome_preemptions, metrics.preemptions);
}

TEST(ServeSim, PreemptionIsDeterministicAndOffWhenDisabled) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(20.0), 30, 11);
  const auto a =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, preempting_config());
  const auto b =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, preempting_config());
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.duration, b.duration);

  ServeConfig off = preempting_config();
  off.preempt = false;
  const auto without =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, off);
  EXPECT_EQ(without.preemptions, 0u);
  EXPECT_EQ(without.preempt_resumes, 0u);
  EXPECT_EQ(without.preempt_swap_seconds, 0.0);
  for (const auto& outcome : without.outcomes) {
    EXPECT_EQ(outcome.preemptions, 0);
  }
}

TEST(ServeSim, ResumesCountEveryReentryNotOnlyPreemptions) {
  // serve.preempt.resumes counts swap-ins from the suspended queue, and a
  // corruption rollback re-enters through the same swap-in as a preemption
  // victim without being a preemption itself.
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 30, 5);
  ServeConfig config;
  config.max_batch = 8;
  config.integrity.policy = integrity::VerifyPolicy::kAlways;
  const auto probe =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config);
  // Request 0 is decoding once its first token is out.
  const double decoding = requests[0].arrival_seconds + probe.outcomes[0].ttft;
  config.events.push_back({decoding, ServeEventKind::kCorruption, 0});
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config);
  EXPECT_EQ(metrics.corruption_detected, 1u);
  EXPECT_EQ(metrics.preemptions, 0u);
  EXPECT_EQ(metrics.preempt_resumes, 1u);
  EXPECT_EQ(metrics.outcomes[0].preemptions, 0);
  EXPECT_EQ(metrics.completed, 30u);
}

TEST(ServeSim, PreemptionSwapsOutTheLowestPriorityFirst) {
  // Wait-based preemption and the overload ladder share one victim rule:
  // lowest priority first, then the most remaining work. Request 1 has
  // more work left, but request 0 is less important.
  const auto spec = model::ModelSpec::opt_13b();
  std::vector<Request> requests;
  for (std::int64_t i = 0; i < 3; ++i) {
    Request r;
    r.id = i;
    r.arrival_seconds = 0.1 * static_cast<double>(i);
    r.prompt_len = 16;
    r.gen_len = 32;
    requests.push_back(r);
  }
  requests[1].gen_len = 64;
  requests[1].priority = 1;
  ServeConfig config = preempting_config();
  config.max_preemptions_per_request = 1;  // the first choice is final
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, config);
  EXPECT_EQ(metrics.outcomes[0].preemptions, 1);
  EXPECT_EQ(metrics.outcomes[1].preemptions, 0);
  EXPECT_EQ(metrics.completed, 3u);
}

TEST(ServeSim, PreemptionMetricsFlowThroughRegistry) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(20.0), 40, 11);
  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder trace;
  trace.enable();
  const auto metrics =
      simulate_serving(spec, serving_policy(), hw::Platform::a100_single(),
                       requests, preempting_config(), &registry, &trace);
  trace.disable();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("serve.preempt.total"), metrics.preemptions);
  EXPECT_EQ(snap.counter("serve.preempt.resumes"), metrics.preempt_resumes);
  EXPECT_DOUBLE_EQ(snap.gauge("serve.preempt.swap_seconds"),
                   metrics.preempt_swap_seconds);

  // The swap traffic shows up on the request timelines.
  std::size_t swap_out = 0;
  std::size_t swap_in = 0;
  for (const auto& ev : trace.events()) {
    if (ev.name == "swap_out") ++swap_out;
    if (ev.name == "swap_in") ++swap_in;
  }
  EXPECT_EQ(swap_out, metrics.preemptions);
  EXPECT_EQ(swap_in, metrics.preempt_resumes);
}

TEST(ServeSim, ValidatesPreemptConfig) {
  const auto spec = model::ModelSpec::opt_13b();
  const auto requests = generate_requests(quick_profile(), 5, 1);
  ServeConfig config = preempting_config();
  config.batching = Batching::kStatic;  // swap needs step-level admission
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), requests,
                                config),
               CheckError);
  config = preempting_config();
  config.preempt_wait_seconds = -1.0;
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), requests,
                                config),
               CheckError);
  config = preempting_config();
  config.max_preemptions_per_request = -1;
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), requests,
                                config),
               CheckError);
}

TEST(ServeSim, ValidatesInputs) {
  const auto spec = model::ModelSpec::opt_13b();
  ServeConfig config;
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), {}, config),
               CheckError);
  config.max_batch = 0;
  const auto requests = generate_requests(quick_profile(), 5, 1);
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), requests,
                                config),
               CheckError);
  // Unsorted arrivals rejected.
  std::vector<Request> unsorted = {{0, 5.0, 8, 4}, {1, 1.0, 8, 4}};
  ServeConfig ok;
  EXPECT_THROW(simulate_serving(spec, serving_policy(),
                                hw::Platform::a100_single(), unsorted, ok),
               CheckError);
}

}  // namespace
}  // namespace lmo::serve
