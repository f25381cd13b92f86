// Chaos suite: recovery behavior of the offloading runtime under injected
// faults, and the simulator's fault model. The central guarantee is
// *determinism* — a seeded fault profile produces byte-identical tokens and
// exactly-accounted recovery stats, run after run.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "lmo/chaos/drill.hpp"
#include "lmo/parallel/threadpool.hpp"
#include "lmo/runtime/mempool.hpp"
#include "lmo/runtime/offload_manager.hpp"
#include "lmo/sim/engine.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/rng.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

using tensor::Tensor;
using util::CheckError;
using util::FaultSpec;
using util::ScopedFaultInjection;
using util::TransferError;

constexpr const char* kFetchSite = "offload.fetch.transfer";
constexpr const char* kPrefetchSite = "offload.prefetch.transfer";

RecoveryConfig fast_recovery(int attempts = 4) {
  RecoveryConfig r;
  r.max_transfer_attempts = attempts;
  r.retry_backoff_seconds = 1e-6;
  return r;
}

// ------------------------------------------------- chaos determinism -----

// The acceptance test of the robustness layer: a seeded 5% transient
// transfer-failure rate plus one bandwidth-degradation window produce
// byte-identical tokens to the fault-free run, complete without throwing,
// and every recovery action matches the injector's trigger log exactly.
// The body is the retry-accounting drill of the lmo/chaos table.
TEST(Chaos, DeterministicUnderTransientFaultsAndLatencyWindow) {
  std::ostringstream out;
  EXPECT_EQ(chaos::run(*chaos::find("retry-accounting"), out), 0)
      << out.str();
}

// ---------------------------------------------- transfer retry / budget --

TEST(Chaos, FetchRetriesTransientFailuresThenSucceeds) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  mgr.set_recovery(fast_recovery());
  util::Xoshiro256 rng(1);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kHost);

  ScopedFaultInjection chaos(42);
  FaultSpec spec;
  spec.fail_probability = 1.0;
  spec.max_failures = 2;  // first two attempts fail, third succeeds
  chaos.arm(kFetchSite, spec);

  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_EQ(mgr.stats().transfer_retries, 2u);
  EXPECT_EQ(mgr.stats().transfer_failures, 0u);
  EXPECT_EQ(mgr.stats().host_transfers, 1u);
  EXPECT_EQ(mgr.stats().bytes_host_to_device,
            static_cast<double>(mgr.stored_bytes("w")));
}

TEST(Chaos, ExhaustedRetryBudgetThrowsTransferError) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  mgr.set_recovery(fast_recovery(/*attempts=*/3));
  util::Xoshiro256 rng(2);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kHost);

  ScopedFaultInjection chaos(42);
  FaultSpec spec;
  spec.fail_probability = 1.0;
  chaos.arm(kFetchSite, spec);

  EXPECT_THROW(mgr.fetch("w"), TransferError);
  EXPECT_EQ(mgr.stats().transfer_retries, 2u);
  EXPECT_EQ(mgr.stats().transfer_failures, 1u);
  // No traffic charged for a transfer that never completed.
  EXPECT_EQ(mgr.stats().bytes_host_to_device, 0.0);
  EXPECT_EQ(mgr.stats().host_transfers, 0u);

  // The injector gone, the same fetch succeeds (failure was transient).
}

// ------------------------------------------------- prefetch recovery -----

TEST(Chaos, FailedPrefetchFallsBackToSynchronousFetch) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  mgr.set_recovery(fast_recovery(/*attempts=*/2));
  util::Xoshiro256 rng(3);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kHost);

  ScopedFaultInjection chaos(7);
  FaultSpec spec;
  spec.fail_probability = 1.0;  // every prefetch attempt fails
  chaos.arm(kPrefetchSite, spec);

  parallel::ThreadPool pool(1);
  // The future completes *normally*: a dead prefetch is recoverable, not a
  // pipeline error.
  EXPECT_NO_THROW(mgr.prefetch("w", pool).get());
  EXPECT_EQ(mgr.stats().prefetch_failures, 1u);
  EXPECT_EQ(mgr.stats().transfer_failures, 1u);
  EXPECT_EQ(mgr.staged_count(), 0u);

  // Next fetch recovers synchronously (fetch site is not armed).
  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_EQ(mgr.stats().sync_fallbacks, 1u);
  EXPECT_EQ(mgr.stats().host_transfers, 1u);
  EXPECT_EQ(mgr.stats().bytes_host_to_device,
            static_cast<double>(mgr.stored_bytes("w")));
}

TEST(Chaos, HungPrefetchTimesOutAndLateResultIsDiscarded) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  RecoveryConfig recovery = fast_recovery();
  recovery.prefetch_wait_seconds = 0.05;  // aggressive watchdog
  mgr.set_recovery(recovery);
  util::Xoshiro256 rng(4);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kHost);

  ScopedFaultInjection chaos(9);
  FaultSpec spec;
  spec.window_begin = 0;  // the prefetch's (only) transfer attempt stalls
  spec.window_end = 1;
  spec.latency_seconds = 0.5;
  chaos.arm(kPrefetchSite, spec);

  parallel::ThreadPool pool(1);
  auto future = mgr.prefetch("w", pool);

  // fetch() waits for the in-flight prefetch, times out, abandons it and
  // recovers with its own synchronous transfer.
  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_EQ(mgr.stats().prefetch_timeouts, 1u);
  EXPECT_EQ(mgr.stats().sync_fallbacks, 1u);

  // The stalled prefetch eventually lands; its late result is dropped, not
  // staged (nobody will consume it).
  future.get();
  EXPECT_EQ(mgr.stats().prefetch_discards, 1u);
  EXPECT_EQ(mgr.staged_count(), 0u);
  // Both transfers physically moved the payload.
  EXPECT_EQ(mgr.stats().host_transfers, 2u);
  EXPECT_EQ(mgr.stats().bytes_host_to_device,
            2.0 * static_cast<double>(mgr.stored_bytes("w")));
}

// ---------------------------------------------- degradation ladder -------

TEST(Chaos, AllocDenialWalksQuantizationLadder) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, /*quant_bits=*/16, /*group_size=*/16);
  util::Xoshiro256 rng(5);
  const Tensor original = Tensor::uniform({64, 64}, rng);

  ScopedFaultInjection chaos(11);
  FaultSpec spec;
  spec.alloc_failures = 2;  // deny fp16 and 8-bit; admit 4-bit
  chaos.arm("pool.h.charge", spec);

  mgr.register_tensor("w", original, Tier::kHost);
  EXPECT_EQ(mgr.stats().degradations, 2u);
  // Landed on the 4-bit rung: smaller than the fp16 rung it started on.
  EXPECT_LT(mgr.stored_bytes("w"), original.byte_size() / 2);
  const Tensor fetched = mgr.fetch("w");
  EXPECT_LE(original.max_abs_diff(fetched), 0.08f);
}

TEST(Chaos, LadderExhaustionStillThrowsResourceExhausted) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16, 16);
  util::Xoshiro256 rng(6);

  ScopedFaultInjection chaos(13);
  FaultSpec spec;
  spec.alloc_failures = 3;  // deny every rung: 16, 8 and 4 bit
  chaos.arm("pool.h.charge", spec);

  EXPECT_THROW(
      mgr.register_tensor("w", Tensor::uniform({64, 64}, rng), Tier::kHost),
      util::ResourceExhausted);
  EXPECT_FALSE(mgr.contains("w"));

  // allow_degradation = false restores the seed's fail-fast behavior: the
  // very first denial surfaces (as a CheckError subtype).
  RecoveryConfig strict;
  strict.allow_degradation = false;
  mgr.set_recovery(strict);
  FaultSpec one;
  one.alloc_failures = 1;
  chaos.arm("pool.h.charge", one);
  EXPECT_THROW(
      mgr.register_tensor("w", Tensor::uniform({64, 64}, rng), Tier::kHost),
      CheckError);
  EXPECT_EQ(mgr.stats().degradations, 2u);  // unchanged: no new rungs taken
}

TEST(Chaos, DeviceExhaustionDemotesRegistrationToHost) {
  // No injector needed: the device pool is genuinely too small.
  MemoryPool device("d", 1000);  // < the 4 KiB f32 payload
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(7);
  mgr.register_tensor("w", Tensor::uniform({16, 16}, rng), Tier::kDevice);

  EXPECT_EQ(mgr.tier_of("w"), Tier::kHost);  // demoted, not dropped
  EXPECT_EQ(mgr.stats().degradations, 1u);
  EXPECT_EQ(device.used(), 0u);
  const Tensor fetched = mgr.fetch("w");
  EXPECT_EQ(fetched.numel(), 256);
  EXPECT_GT(mgr.stats().bytes_host_to_device, 0.0);  // it streams now
}

TEST(Chaos, RegistrationEvictsStagedEntriesBeforeDemoting) {
  // Device pool fits one 1 KiB f32 payload but not two: a staged prefetch
  // occupies it; registering a device tensor must reclaim the staging
  // buffer instead of demoting.
  MemoryPool device("d", 1500);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  util::Xoshiro256 rng(8);
  mgr.register_tensor("w1", Tensor::uniform({16, 16}, rng), Tier::kHost);

  parallel::ThreadPool pool(1);
  mgr.prefetch("w1", pool).get();
  ASSERT_EQ(mgr.staged_count(), 1u);
  ASSERT_GT(device.used(), 0u);

  mgr.register_tensor("w2", Tensor::uniform({16, 16}, rng), Tier::kDevice);
  EXPECT_EQ(mgr.tier_of("w2"), Tier::kDevice);
  EXPECT_EQ(mgr.stats().staged_evictions, 1u);
  EXPECT_EQ(mgr.stats().degradations, 0u);
  EXPECT_EQ(mgr.staged_count(), 0u);
}

TEST(Chaos, RecoveryConfigValidates) {
  MemoryPool device("d", 1 << 20);
  MemoryPool host("h", 1 << 20);
  OffloadManager mgr(device, host, 16);
  RecoveryConfig bad;
  bad.max_transfer_attempts = 0;
  EXPECT_THROW(mgr.set_recovery(bad), CheckError);
  bad = RecoveryConfig{};
  bad.retry_backoff_seconds = -1.0;
  EXPECT_THROW(mgr.set_recovery(bad), CheckError);
}

}  // namespace
}  // namespace lmo::runtime

// ----------------------------------------------- simulator fault model ---

namespace lmo::sim {
namespace {

Engine make_chain(int tasks, const std::optional<FaultModel>& model) {
  Engine engine;
  const ResourceId io = engine.add_resource("pcie");
  for (int i = 0; i < tasks; ++i) {
    engine.add_task("t" + std::to_string(i), "load_weight", io, 1.0);
  }
  if (model) engine.set_fault_model(*model);
  return engine;
}

TEST(SimFault, DeterministicDegradation) {
  FaultModel model;
  model.fail_probability = 0.3;
  model.retry_penalty = 1.0;
  model.max_attempts = 4;
  model.seed = 77;

  auto a = make_chain(200, model).run();
  auto b = make_chain(200, model).run();
  EXPECT_GT(a.task_failures, 0);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
  // Effective makespan = clean makespan + recovery time (serial resource).
  EXPECT_DOUBLE_EQ(a.makespan, 200.0 + a.recovery_seconds);
  for (const auto& t : a.tasks) {
    EXPECT_GE(t.attempts, 1);
    EXPECT_LE(t.attempts, 4);
    EXPECT_DOUBLE_EQ(t.duration, 1.0 * (1 + (t.attempts - 1)));
  }
}

TEST(SimFault, ExpectedInflationMatchesMeasurement) {
  FaultModel model;
  model.fail_probability = 0.2;
  model.retry_penalty = 1.0;
  model.max_attempts = 4;
  model.seed = 5;

  const int n = 4000;
  const auto result = make_chain(n, model).run();
  const double measured = result.makespan / static_cast<double>(n);
  EXPECT_NEAR(measured, model.expected_inflation(), 0.02);
}

TEST(SimFault, CategoryFilterSparesOtherTasks) {
  Engine engine;
  const ResourceId io = engine.add_resource("pcie");
  const ResourceId gpu = engine.add_resource("gpu");
  for (int i = 0; i < 50; ++i) {
    engine.add_task("ld", "load_weight", io, 1.0);
    engine.add_task("mm", "compute", gpu, 1.0);
  }
  FaultModel model;
  model.fail_probability = 0.5;
  model.seed = 3;
  model.category = "load_weight";
  engine.set_fault_model(model);
  const auto result = engine.run();
  EXPECT_GT(result.task_failures, 0);
  for (const auto& t : result.tasks) {
    if (t.category == "compute") {
      EXPECT_EQ(t.attempts, 1);
    }
  }
}

TEST(SimFault, CleanEngineReportsNoFailures) {
  const auto result = make_chain(20, std::nullopt).run();
  EXPECT_EQ(result.task_failures, 0);
  EXPECT_EQ(result.recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
}

TEST(SimFault, ValidatesModel) {
  FaultModel bad;
  bad.fail_probability = 1.0;  // certain failure never terminates
  EXPECT_THROW(bad.validate(), util::CheckError);
  bad = FaultModel{};
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), util::CheckError);
  FaultModel none;
  EXPECT_DOUBLE_EQ(none.expected_inflation(), 1.0);
}

}  // namespace
}  // namespace lmo::sim
