// The kill -9 matrix: the crash chaos drill forks a child that runs a
// supervised generation with a crash-point fault armed
// (util::FaultInjector::maybe_crash -> SIGKILL) at successive operation
// indices of every crash site on the offload path — journal append, block
// write, fsync barrier, checkpoint publish. The parent recovers each kill
// in-process from the on-disk state alone; the drill asserts byte-identical
// tokens, one recovery per kill and zero leaked blocks. This suite runs it
// on a smaller model with a tighter checkpoint cadence, and crashes a
// recovered run a second time.
//
// The configs run with prefetch_threads == 0 and compute_threads == 0:
// the child is forked, and fork() of a multithreaded process may deadlock
// in the child (TSan in particular forbids it). Parent and child both use
// thread-free Generators, so every fork in this file stays safe.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lmo/chaos/drill.hpp"
#include "lmo/ckpt/format.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/recover/wal.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/tempdir.hpp"

namespace {

using namespace lmo;

runtime::RuntimeConfig drill_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = 8;
  config.device_layers = 0;
  config.disk_layers = 1;
  config.disk_capacity = 4u << 20;
  config.spill_block_bytes = 4096;
  config.prefetch_threads = 0;  // fork safety: no threads, ever
  config.compute_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-6;
  return config;
}

const std::vector<std::vector<std::int64_t>> kPrompts = {{1, 2, 3, 4}};
constexpr std::int64_t kGenLen = 6;
constexpr int kCkptInterval = 2;

/// One full supervised run in `dir`; returns the generated tokens.
std::vector<std::vector<std::int64_t>> supervised_run(
    const std::string& dir, const runtime::RuntimeConfig& config) {
  recover::RecoveryManager manager({dir, kCkptInterval});
  auto gen = manager.start(config);
  gen->begin(kPrompts, kGenLen);
  while (!gen->done()) {
    gen->step();
    manager.note_step(*gen);
  }
  return gen->finish().tokens;
}

/// Forks a child that runs `body` under a fresh injector with SIGKILL
/// armed at crash check `at` of `site`. Returns the child's wait status:
/// exit 0 when the schedule never fired, 3 when `body` threw.
int run_child_with_crash(const std::string& site, std::int64_t at,
                         std::uint64_t seed,
                         const std::function<void()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    util::ScopedFaultInjection chaos(seed);
    util::FaultSpec spec;
    spec.crash_at_op = at;
    chaos.arm(site, spec);
    try {
      body();
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

TEST(CrashMatrix, EveryCrashSiteRecoversByteIdentically) {
  chaos::Drill drill = *chaos::find("crash");
  drill.config.runtime = drill_config();
  drill.config.prompts = kPrompts;
  drill.config.gen_len = kGenLen;
  drill.config.checkpoint_interval = kCkptInterval;
  std::ostringstream out;
  EXPECT_EQ(chaos::run(drill, out), 0) << out.str();
}

TEST(CrashMatrix, RepeatedCrashesAcrossRecoveriesStillConverge) {
  // Crash, recover, crash the *recovered* run, recover again: the WAL is
  // compacted on every recovery, so state never accretes and the final
  // run still matches the reference.
  const auto config = drill_config();
  util::TempDir ref_dir("recover_crash");
  const auto reference = supervised_run(ref_dir.path(), config);

  util::TempDir dir("recover_crash");
  int status = run_child_with_crash(ckpt::kPublishSite, 1, 7, [&] {
    supervised_run(dir.path(), config);
  });
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Recover from `dir` and run to completion under supervision.
  const auto recover_and_finish = [&] {
    recover::RecoveryManager manager({dir.path(), kCkptInterval});
    recover::RecoveredSession session = manager.recover(&config);
    runtime::Generator& gen = *session.generator;
    if (!session.resumed) gen.begin(kPrompts, kGenLen);
    while (!gen.done()) {
      gen.step();
      manager.note_step(gen);
    }
    return gen.finish().tokens;
  };

  // Second incarnation: recovered in a child, killed again mid-journal.
  status = run_child_with_crash(recover::kJournalAppendSite, 0, 8,
                                recover_and_finish);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "second crash never fired (status " << status << ")";

  // Third incarnation recovers and finishes.
  EXPECT_EQ(recover_and_finish(), reference);
}

}  // namespace
