// Tests for the overload-protection subsystem: memory-pressure watermarks
// and pool callbacks (including the overflow-safe capacity check), the
// degradation ladder's streak/hysteresis state machine, bounded admission
// policies, prefix-cache pressure relief and pin accounting, seeded burst
// workloads, and the serving-engine integration — deterministic degraded
// runs, typed overload.* metrics, pin-lease hygiene under abort storms,
// and the goodput ordering that justifies deadline-aware shedding.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "lmo/chaos/drill.hpp"
#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/overload/admission.hpp"
#include "lmo/overload/ladder.hpp"
#include "lmo/overload/watermark.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/serve/server_sim.hpp"
#include "lmo/serve/workload_gen.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/status.hpp"

namespace lmo {
namespace {

using overload::AdmissionPolicy;
using overload::LadderRung;
using overload::PressureLevel;

// -- watermarks ------------------------------------------------------------

TEST(Watermarks, ValidatesStrictOrdering) {
  overload::WatermarkConfig w;
  EXPECT_NO_THROW(w.validate());  // defaults are ordered

  w.low = 0.9;  // low >= high
  EXPECT_THROW(w.validate(), util::CheckError);
  w.low = 0.7;
  w.critical = 0.85;  // high >= critical
  EXPECT_THROW(w.validate(), util::CheckError);
  w.critical = 1.5;  // above 1
  EXPECT_THROW(w.validate(), util::CheckError);
  w.low = 0.0;  // low must be > 0
  w.critical = 0.95;
  EXPECT_THROW(w.validate(), util::CheckError);
}

TEST(Watermarks, LevelsPartitionOccupancy) {
  overload::WatermarkConfig w;  // 0.70 / 0.85 / 0.95
  EXPECT_EQ(w.level(0, 100), PressureLevel::kNone);
  EXPECT_EQ(w.level(69, 100), PressureLevel::kNone);
  EXPECT_EQ(w.level(70, 100), PressureLevel::kLow);
  EXPECT_EQ(w.level(84, 100), PressureLevel::kLow);
  EXPECT_EQ(w.level(85, 100), PressureLevel::kHigh);
  EXPECT_EQ(w.level(94, 100), PressureLevel::kHigh);
  EXPECT_EQ(w.level(95, 100), PressureLevel::kCritical);
  EXPECT_EQ(w.level(100, 100), PressureLevel::kCritical);
}

// -- memory pool: overflow regression + pressure callbacks -----------------

TEST(MemPool, OverflowSafeCapacityCheck) {
  // Regression: `used_ + bytes > capacity_` wraps for bytes near SIZE_MAX
  // and used to let an absurd charge through. The comparison must be
  // overflow-safe and fail typed.
  runtime::MemoryPool pool("overflow", 1024);
  pool.charge(512);
  EXPECT_THROW(pool.charge(std::numeric_limits<std::size_t>::max()),
               util::ResourceExhausted);
  EXPECT_THROW(
      pool.charge(std::numeric_limits<std::size_t>::max() - 256),
      util::ResourceExhausted);
  EXPECT_EQ(pool.used(), 512u);  // failed charges leave no residue
  pool.charge(512);              // exact fit still works
  EXPECT_EQ(pool.used(), 1024u);
}

TEST(MemPool, WouldFailChargeAsksCallbacksBeforeThrowing) {
  runtime::MemoryPool pool("rescue", 1000);
  pool.charge(900);
  std::size_t asked = 0;
  pool.add_pressure_callback([&](PressureLevel level, std::size_t needed) {
    EXPECT_EQ(level, PressureLevel::kCritical);
    asked = needed;
    pool.release(500);  // callbacks may release (never charge)
    return std::size_t{500};
  });
  pool.charge(200);  // 900 + 200 > 1000: rescued by the callback
  EXPECT_EQ(pool.used(), 600u);
  EXPECT_GE(asked, 100u);  // at least the deficit
}

TEST(MemPool, ThrowsWhenCallbacksCannotFreeEnough) {
  runtime::MemoryPool pool("hopeless", 1000);
  pool.charge(900);
  int calls = 0;
  pool.add_pressure_callback([&](PressureLevel, std::size_t) {
    ++calls;
    return std::size_t{0};
  });
  EXPECT_THROW(pool.charge(200), util::ResourceExhausted);
  EXPECT_EQ(calls, 1);  // one relief round trip, then the typed throw
  EXPECT_EQ(pool.used(), 900u);
}

TEST(MemPool, WatermarkCrossingIsEdgeTriggered) {
  runtime::MemoryPool pool("edges", 1000);
  pool.set_watermarks(overload::WatermarkConfig{});
  std::vector<PressureLevel> seen;
  pool.add_pressure_callback([&](PressureLevel level, std::size_t) {
    seen.push_back(level);
    return std::size_t{0};
  });

  pool.charge(600);  // below low: silent
  EXPECT_TRUE(seen.empty());
  pool.charge(260);  // 86%: crosses high
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], PressureLevel::kHigh);
  pool.charge(20);  // still high: no repeat signal
  EXPECT_EQ(seen.size(), 1u);
  pool.charge(80);  // 96%: crosses critical
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], PressureLevel::kCritical);

  pool.release(400);  // below low: re-arms the excursion
  pool.charge(300);   // crosses high again
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], PressureLevel::kHigh);
}

TEST(MemPool, PressureLevelTracksWatermarks) {
  runtime::MemoryPool pool("levels", 1000);
  EXPECT_EQ(pool.pressure(), PressureLevel::kNone);  // unarmed
  pool.set_watermarks(overload::WatermarkConfig{});
  pool.charge(750);
  EXPECT_EQ(pool.pressure(), PressureLevel::kLow);
  pool.charge(200);
  EXPECT_EQ(pool.pressure(), PressureLevel::kCritical);
  pool.release(900);
  EXPECT_EQ(pool.pressure(), PressureLevel::kNone);
}

// -- prefix cache as a pressure-relief citizen -----------------------------

kvshare::PrefixCacheConfig accounting_cache(std::int64_t block_tokens,
                                            std::size_t bytes_per_token) {
  kvshare::PrefixCacheConfig config;
  config.block_tokens = block_tokens;
  config.materialize = false;
  config.bytes_per_token = bytes_per_token;
  return config;
}

std::vector<std::int64_t> seq(std::int64_t n, std::int64_t start = 0) {
  std::vector<std::int64_t> tokens;
  for (std::int64_t i = 0; i < n; ++i) tokens.push_back(start + i);
  return tokens;
}

TEST(PrefixCachePressure, EvictsUnpinnedChainsInsteadOfThrowing) {
  // Pool sized for 8 blocks of 32 bytes. Fill it with unpinned chains,
  // then charge directly: the cache's registered callback must evict
  // blocks so the charge succeeds where it would have thrown.
  runtime::MemoryPool pool("kv", 256);
  {
    kvshare::PrefixCache cache(accounting_cache(4, 8), &pool, nullptr);
    cache.insert(seq(16, 0), nullptr);   // 4 blocks
    cache.insert(seq(16, 100), nullptr); // 4 more
    EXPECT_EQ(pool.used(), 256u);
    pool.charge(128);  // rescued: callback evicts >= 4 blocks
    EXPECT_LE(pool.used(), 256u);
    EXPECT_LE(cache.blocks_in_use(), 4u);
    pool.release(128);
  }
  EXPECT_EQ(pool.used(), 0u);  // cache teardown returns every byte
}

TEST(PrefixCachePressure, PinnedChainsSurvivePressure) {
  runtime::MemoryPool pool("kv", 256);
  kvshare::PrefixCache cache(accounting_cache(4, 8), &pool, nullptr);
  auto pinned = cache.insert(seq(16, 0), nullptr);  // 4 blocks, pinned
  ASSERT_NE(pinned, nullptr);
  cache.insert(seq(16, 100), nullptr);  // 4 unpinned blocks
  EXPECT_EQ(pool.used(), 256u);
  pool.charge(64);  // evicts from the unpinned chain only
  EXPECT_GE(cache.blocks_in_use(), 4u);
  // The pinned chain's blocks are all still resident and matchable.
  EXPECT_EQ(cache.match(seq(17, 0))->matched_tokens(), 16);
  // A charge larger than the whole pool can never be rescued.
  EXPECT_THROW(pool.charge(1024), util::ResourceExhausted);
  pool.release(64);
}

TEST(PrefixCachePressure, PinnedGaugeReturnsToBaseline) {
  telemetry::MetricsRegistry reg;
  runtime::MemoryPool pool("kv", 1024);
  kvshare::PrefixCache cache(accounting_cache(4, 8), &pool, &reg);
  EXPECT_EQ(cache.pinned_leases(), 0u);
  {
    auto a = cache.insert(seq(8, 0), nullptr);
    auto b = cache.match(seq(9, 0));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(cache.pinned_leases(), 2u);
    EXPECT_EQ(reg.gauge("kvshare.pinned").value(), 2.0);
  }
  EXPECT_EQ(cache.pinned_leases(), 0u);
  EXPECT_EQ(reg.gauge("kvshare.pinned").value(), 0.0);
}

// -- degradation ladder ----------------------------------------------------

TEST(Ladder, EscalatesAfterStreakOneRungAtATime) {
  overload::LadderConfig config;  // escalate 2, de-escalate 4
  overload::DegradationLadder ladder(config);
  EXPECT_EQ(ladder.rung(), LadderRung::kNormal);

  EXPECT_FALSE(ladder.observe(PressureLevel::kHigh, 1.0).has_value());
  const auto t = ladder.observe(PressureLevel::kHigh, 2.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->from, LadderRung::kNormal);
  EXPECT_EQ(t->to, LadderRung::kShrinkCache);
  EXPECT_TRUE(t->escalation());
  EXPECT_EQ(t->at_seconds, 2.0);

  // Streak continues: two more high observations climb exactly one rung.
  EXPECT_FALSE(ladder.observe(PressureLevel::kHigh, 3.0).has_value());
  ASSERT_TRUE(ladder.observe(PressureLevel::kHigh, 4.0).has_value());
  EXPECT_EQ(ladder.rung(), LadderRung::kDemoteKV);
}

TEST(Ladder, CriticalPressureClimbsImmediately) {
  overload::DegradationLadder ladder(overload::LadderConfig{});
  for (double t = 1.0; t <= 4.0; t += 1.0) {
    const auto transition = ladder.observe(PressureLevel::kCritical, t);
    ASSERT_TRUE(transition.has_value());
    EXPECT_TRUE(transition->escalation());
  }
  EXPECT_EQ(ladder.rung(), LadderRung::kShed);
  // Saturated: further critical observations report no transition.
  EXPECT_FALSE(ladder.observe(PressureLevel::kCritical, 5.0).has_value());
}

TEST(Ladder, LowBandHoldsRungHysteretically) {
  overload::DegradationLadder ladder(overload::LadderConfig{});
  ladder.observe(PressureLevel::kCritical, 1.0);
  EXPECT_EQ(ladder.rung(), LadderRung::kShrinkCache);

  // kLow is the hysteresis band: neither escalates nor cools.
  for (double t = 2.0; t < 12.0; t += 1.0) {
    EXPECT_FALSE(ladder.observe(PressureLevel::kLow, t).has_value());
  }
  EXPECT_EQ(ladder.rung(), LadderRung::kShrinkCache);

  // Only a sustained run below low steps down.
  EXPECT_FALSE(ladder.observe(PressureLevel::kNone, 20.0).has_value());
  EXPECT_FALSE(ladder.observe(PressureLevel::kNone, 21.0).has_value());
  EXPECT_FALSE(ladder.observe(PressureLevel::kNone, 22.0).has_value());
  const auto down = ladder.observe(PressureLevel::kNone, 23.0);
  ASSERT_TRUE(down.has_value());
  EXPECT_FALSE(down->escalation());
  EXPECT_EQ(ladder.rung(), LadderRung::kNormal);
}

TEST(Ladder, PressureBlipResetsCoolStreak) {
  overload::DegradationLadder ladder(overload::LadderConfig{});
  ladder.observe(PressureLevel::kCritical, 1.0);
  ladder.observe(PressureLevel::kNone, 2.0);
  ladder.observe(PressureLevel::kNone, 3.0);
  ladder.observe(PressureLevel::kNone, 4.0);
  ladder.observe(PressureLevel::kHigh, 5.0);  // blip: cool streak resets
  for (double t = 6.0; t < 9.0; t += 1.0) {
    EXPECT_FALSE(ladder.observe(PressureLevel::kNone, t).has_value());
  }
  EXPECT_EQ(ladder.rung(), LadderRung::kShrinkCache);
}

TEST(Ladder, ValidatesConfig) {
  overload::LadderConfig config;
  config.escalate_steps = 0;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.escalate_steps = 2;
  config.deescalate_steps = 0;
  EXPECT_THROW(config.validate(), util::CheckError);
}

// -- admission controllers -------------------------------------------------

overload::AdmissionRequest descriptor(std::int64_t id, double submit,
                                      double service, int priority = 0,
                                      std::size_t kv_bytes = 0) {
  overload::AdmissionRequest r;
  r.id = id;
  r.submit_seconds = submit;
  r.predicted_service_seconds = service;
  r.predicted_kv_bytes = kv_bytes;
  r.priority = priority;
  return r;
}

TEST(Admission, PolicyNamesRoundTrip) {
  for (const auto policy :
       {AdmissionPolicy::kUnbounded, AdmissionPolicy::kFifoReject,
        AdmissionPolicy::kDeadlineShed, AdmissionPolicy::kTokenBudget}) {
    EXPECT_EQ(overload::admission_policy_from_string(
                  overload::to_string(policy)),
              policy);
  }
  EXPECT_THROW(overload::admission_policy_from_string("lifo"),
               util::CheckError);
}

TEST(Admission, ConfigValidatesBoundAndDeadline) {
  overload::AdmissionConfig config;
  EXPECT_NO_THROW(config.validate());  // unbounded needs nothing

  config.policy = AdmissionPolicy::kFifoReject;
  config.max_queue = 0;  // zero bound with shedding enabled: config error
  EXPECT_THROW(config.validate(), util::CheckError);
  config.max_queue = 8;
  EXPECT_NO_THROW(config.validate());

  config.policy = AdmissionPolicy::kDeadlineShed;
  config.deadline_seconds = 0.0;  // slack needs an SLO
  EXPECT_THROW(config.validate(), util::CheckError);
  config.deadline_seconds = 10.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(Admission, FifoRejectBouncesNewcomerWhenFull) {
  overload::AdmissionConfig config;
  config.policy = AdmissionPolicy::kFifoReject;
  config.max_queue = 2;
  const auto controller = overload::make_admission_controller(config);

  std::vector<overload::AdmissionRequest> queue = {
      descriptor(0, 0.0, 1.0), descriptor(1, 0.0, 1.0)};
  const auto full = controller->decide(queue, descriptor(2, 1.0, 1.0), 1.0,
                                       std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(full.admit);

  queue.pop_back();
  const auto room = controller->decide(queue, descriptor(2, 1.0, 1.0), 1.0,
                                       std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(room.admit);
  EXPECT_EQ(room.shed_queue_index, -1);
}

TEST(Admission, DeadlineShedDropsLeastViableQueuedRequest) {
  overload::AdmissionConfig config;
  config.policy = AdmissionPolicy::kDeadlineShed;
  config.max_queue = 2;
  config.deadline_seconds = 10.0;
  const auto controller = overload::make_admission_controller(config);

  // Request 0 is doomed (submitted at t=0, now t=8, needs 5s > 2s left);
  // request 1 and the newcomer are viable. The doomed one is shed and the
  // newcomer queued.
  const std::vector<overload::AdmissionRequest> queue = {
      descriptor(0, 0.0, 5.0), descriptor(1, 7.0, 1.0)};
  const auto verdict =
      controller->decide(queue, descriptor(2, 8.0, 1.0), 8.0,
                         std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(verdict.admit);
  EXPECT_EQ(verdict.shed_queue_index, 0);
}

TEST(Admission, DeadlineShedRejectsNewcomerWhenItIsLeastViable) {
  overload::AdmissionConfig config;
  config.policy = AdmissionPolicy::kDeadlineShed;
  config.max_queue = 2;
  config.deadline_seconds = 10.0;
  const auto controller = overload::make_admission_controller(config);

  const std::vector<overload::AdmissionRequest> queue = {
      descriptor(0, 8.0, 1.0), descriptor(1, 8.0, 1.0)};
  // Newcomer predicted to need 50s: the worst slack in the pool is its own.
  const auto verdict =
      controller->decide(queue, descriptor(2, 8.0, 50.0), 8.0,
                         std::numeric_limits<std::size_t>::max());
  EXPECT_FALSE(verdict.admit);
}

TEST(Admission, DeadlineShedBreaksSlackTiesByPriority) {
  overload::AdmissionConfig config;
  config.policy = AdmissionPolicy::kDeadlineShed;
  config.max_queue = 2;
  config.deadline_seconds = 10.0;
  const auto controller = overload::make_admission_controller(config);

  // Identical slack everywhere; queue[1] has the lowest priority.
  const std::vector<overload::AdmissionRequest> queue = {
      descriptor(0, 0.0, 2.0, /*priority=*/2),
      descriptor(1, 0.0, 2.0, /*priority=*/0)};
  const auto verdict = controller->decide(
      queue, descriptor(2, 0.0, 2.0, /*priority=*/1), 0.0,
      std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(verdict.admit);
  EXPECT_EQ(verdict.shed_queue_index, 1);
}

TEST(Admission, TokenBudgetRefusesOversizedKv) {
  overload::AdmissionConfig config;
  config.policy = AdmissionPolicy::kTokenBudget;
  config.max_queue = 8;
  const auto controller = overload::make_admission_controller(config);

  const std::vector<overload::AdmissionRequest> queue;
  EXPECT_FALSE(controller
                   ->decide(queue, descriptor(0, 0.0, 1.0, 0, 2048), 0.0,
                            /*kv_headroom_bytes=*/1024)
                   .admit);
  EXPECT_TRUE(controller
                  ->decide(queue, descriptor(0, 0.0, 1.0, 0, 512), 0.0,
                           /*kv_headroom_bytes=*/1024)
                  .admit);
}

// -- workload generation ---------------------------------------------------

TEST(WorkloadGuard, RejectsNonPositiveOrNonFiniteArrivalRate) {
  serve::RequestProfile profile;
  profile.arrival_rate = 0.0;
  EXPECT_THROW(serve::generate_requests(profile, 10, 1), util::CheckError);
  profile.arrival_rate = -2.0;
  EXPECT_THROW(serve::generate_requests(profile, 10, 1), util::CheckError);
  profile.arrival_rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(serve::generate_requests(profile, 10, 1), util::CheckError);
  profile.arrival_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(serve::generate_requests(profile, 10, 1), util::CheckError);
}

TEST(BurstWorkload, SeedPureAndSorted) {
  serve::BurstProfile profile;
  profile.num_priorities = 3;
  const auto a = serve::generate_burst_requests(profile, 200, 7);
  const auto b = serve::generate_burst_requests(profile, 200, 7);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].gen_len, b[i].gen_len);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_GE(a[i].priority, 0);
    EXPECT_LT(a[i].priority, 3);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
  const auto c = serve::generate_burst_requests(profile, 200, 8);
  EXPECT_NE(a[0].arrival_seconds, c[0].arrival_seconds);
}

TEST(BurstWorkload, RateTrapezoidAndDensityInsideBurst) {
  serve::BurstProfile profile;
  profile.base.arrival_rate = 1.0;
  profile.burst_rate = 20.0;
  profile.burst_start = 10.0;
  profile.burst_duration = 10.0;
  profile.ramp_seconds = 5.0;
  EXPECT_DOUBLE_EQ(profile.rate_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(profile.rate_at(12.5), 10.5);  // mid ramp-up
  EXPECT_DOUBLE_EQ(profile.rate_at(18.0), 20.0);  // full burst
  EXPECT_DOUBLE_EQ(profile.rate_at(27.5), 10.5);  // mid ramp-down
  EXPECT_DOUBLE_EQ(profile.rate_at(31.0), 1.0);

  const auto requests = serve::generate_burst_requests(profile, 300, 11);
  std::int64_t inside = 0;
  for (const auto& r : requests) {
    if (r.arrival_seconds >= 15.0 && r.arrival_seconds < 25.0) ++inside;
  }
  // The 10 s burst window at 20 req/s should dominate the trace.
  EXPECT_GT(inside, 100);
}

TEST(BurstWorkload, ValidatesProfile) {
  serve::BurstProfile profile;
  profile.burst_rate = profile.base.arrival_rate / 2.0;  // burst < base
  EXPECT_THROW(serve::generate_burst_requests(profile, 10, 1),
               util::CheckError);
  profile = serve::BurstProfile{};
  profile.burst_duration = 0.0;
  EXPECT_THROW(serve::generate_burst_requests(profile, 10, 1),
               util::CheckError);
  profile = serve::BurstProfile{};
  profile.num_priorities = 0;
  EXPECT_THROW(serve::generate_burst_requests(profile, 10, 1),
               util::CheckError);
}

// -- serving integration ---------------------------------------------------

TEST(ServeOverload, ValidatesConfig) {
  const auto spec = model::ModelSpec::opt_13b();
  serve::ServeConfig config;

  // max_queue without a bounded policy is dead config, not a default.
  config.max_queue = 8;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.max_queue = 0;

  // A zero bound with shedding enabled is a config error.
  config.admission = AdmissionPolicy::kFifoReject;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.max_queue = 8;
  EXPECT_NO_THROW(config.validate());

  // Deadline-aware shedding needs a deadline.
  config.admission = AdmissionPolicy::kDeadlineShed;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.deadline_seconds = -1.0;  // and a *negative* one is rejected first
  EXPECT_THROW(config.validate(), util::CheckError);
  config.deadline_seconds = 10.0;
  EXPECT_NO_THROW(config.validate());

  // Token-budget needs the KV pool to price headroom against.
  config.admission = AdmissionPolicy::kTokenBudget;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.overload.enabled = true;
  config.overload.kv_pool_bytes = 1 << 20;
  EXPECT_NO_THROW(config.validate());

  // Watermarks must be strictly ordered.
  config.overload.watermarks.low = 0.9;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.overload.watermarks.low = 0.7;

  // Demoted KV bits and the shrink fraction are bounded.
  config.overload.demoted_kv_bits = 0;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.overload.demoted_kv_bits = 4;
  config.overload.shrink_cache_fraction = 0.0;
  EXPECT_THROW(config.validate(), util::CheckError);
  config.overload.shrink_cache_fraction = 0.5;
  EXPECT_NO_THROW(config.validate());

  // Enabled overload requires a pool capacity.
  config.overload.kv_pool_bytes = 0;
  EXPECT_THROW(config.validate(), util::CheckError);
  (void)spec;
}

TEST(ServeOverload, DegradedRunIsDeterministicAndNeverThrows) {
  // The overload chaos drill on this suite's burst seed: a pool-overrunning
  // workload degrades instead of escaping as util::ResourceExhausted, walks
  // the ladder both ways, sheds with typed outcomes, still serves work, and
  // repeats byte for byte.
  chaos::Drill drill = *chaos::find("overload");
  drill.config.seed = 42;
  std::ostringstream out;
  EXPECT_EQ(chaos::run(drill, out), 0) << out.str();
}

TEST(ServeOverload, DeadlineShedBeatsFifoRejectOnGoodput) {
  const auto s = chaos::burst_scenario(42);
  const auto run = [&s](AdmissionPolicy admission) {
    auto config = s.config;
    config.admission = admission;
    return serve::simulate_serving(s.spec, s.policy, s.platform, s.requests,
                                   config);
  };
  const auto shed = run(AdmissionPolicy::kDeadlineShed);
  const auto fifo = run(AdmissionPolicy::kFifoReject);
  // The acceptance bar: dropping the least-viable queued request wins
  // strictly more SLO-met completions per second than bouncing newcomers.
  EXPECT_GT(shed.request_goodput, fifo.request_goodput);
}

TEST(ServeOverload, LadderMetricsAndSpansAreTyped) {
  const auto s = chaos::burst_scenario(42);
  telemetry::MetricsRegistry reg;
  telemetry::TraceRecorder rec;
  rec.enable();
  const auto m = serve::simulate_serving(s.spec, s.policy, s.platform,
                                         s.requests, s.config, &reg, &rec);

  // Registry is the source of truth for the overload vocabulary.
  EXPECT_EQ(reg.counter("overload.escalations").value(),
            m.overload_escalations);
  EXPECT_EQ(reg.counter("overload.deescalations").value(),
            m.overload_deescalations);
  EXPECT_EQ(reg.counter("overload.shed").value(), m.shed);
  EXPECT_EQ(reg.counter("overload.rejected").value(), m.rejected);
  EXPECT_EQ(reg.counter("overload.demoted_sessions").value(),
            m.demoted_sessions);
  EXPECT_EQ(reg.counter("overload.preemptions").value(),
            m.overload_preemptions);
  EXPECT_GT(reg.gauge("overload.kv_pool.peak_bytes").value(), 0.0);

  // Every ladder transition landed as a "serve.overload" span, and there
  // are exactly escalations + de-escalations of them.
  const auto json = rec.to_json();
  std::size_t transitions = 0;
  for (std::size_t pos = json.find("ladder:"); pos != std::string::npos;
       pos = json.find("ladder:", pos + 1)) {
    ++transitions;
  }
  EXPECT_EQ(transitions, m.overload_escalations + m.overload_deescalations);
  EXPECT_NE(json.find("serve.overload"), std::string::npos);
}

TEST(ServeOverload, UnboundedLegacyConfigReportsNoOverloadActivity) {
  const auto s = chaos::burst_scenario(42);
  serve::RequestProfile profile;
  profile.arrival_rate = 2.0;
  const auto requests = serve::generate_requests(profile, 40, 42);
  serve::ServeConfig config;
  config.max_batch = 16;
  const auto m =
      serve::simulate_serving(s.spec, s.policy, s.platform, requests, config);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.overload_escalations, 0u);
  EXPECT_EQ(m.demoted_sessions, 0u);
  EXPECT_EQ(m.overload_preemptions, 0u);
  for (const auto& outcome : m.outcomes) EXPECT_FALSE(outcome.shed);
}

TEST(ServeOverload, AbortStormReleasesEveryPinLease) {
  // Satellite: deadline aborts + retries + prefix sharing must never leak
  // a pin lease — kvshare.pinned returns to zero when the run drains.
  const auto s = chaos::burst_scenario(42);
  serve::SharedPrefixProfile profile;
  profile.base.arrival_rate = 6.0;
  profile.base.gen_mean = 48;
  profile.base.gen_max = 128;
  profile.num_templates = 3;
  profile.template_tokens = 64;
  const auto requests =
      serve::generate_shared_prefix_requests(profile, 80, 42);

  auto config = s.config;
  config.prefix_share = true;
  config.deadline_seconds = 10.0;  // tight: force an abort storm
  config.max_retries = 2;

  telemetry::MetricsRegistry reg;
  const auto m = serve::simulate_serving(s.spec, s.policy, s.platform,
                                         requests, config, &reg);
  EXPECT_GT(m.deadline_misses + m.shed + m.rejected, 0u);
  EXPECT_EQ(reg.gauge("kvshare.pinned").value(), 0.0);
}

TEST(ServeOverload, ConcurrentPoolTrafficWithCacheCallbackIsSafe) {
  // TSan target: charge/release traffic racing the prefix cache's
  // pressure callback and its own insert/match/evict churn.
  runtime::MemoryPool pool("kv", 1 << 16);
  pool.set_watermarks(overload::WatermarkConfig{});
  kvshare::PrefixCache cache(accounting_cache(4, 16), &pool, nullptr);

  std::vector<std::thread> threads;
  for (int worker = 0; worker < 4; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < 200; ++i) {
        const std::int64_t base = worker * 1000 + (i % 8) * 16;
        auto lease = cache.insert(seq(16, base), nullptr);
        cache.match(seq(17, base));
        if (pool.try_charge(256)) pool.release(256);
        if (i % 16 == 0) cache.evict(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.pinned_leases(), 0u);
}

}  // namespace
}  // namespace lmo
