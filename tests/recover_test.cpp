// Crash-consistency tests for the write-ahead spill-store manifest
// (lmo/recover/wal.hpp) and the RecoveryManager supervisor: journal
// replay idempotence, torn-tail truncation, orphan-block GC accounting,
// keyed payload adoption, and in-process end-to-end recovery of a
// supervised generation. The fork/SIGKILL matrix lives in
// recover_crash_test.cpp; this file stays single-process.
#include <sys/stat.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lmo/ckpt/format.hpp"
#include "lmo/recover/recovery_manager.hpp"
#include "lmo/recover/wal.hpp"
#include "lmo/runtime/generator.hpp"
#include "lmo/store/block_store.hpp"
#include "lmo/store/storage_backend.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/tempdir.hpp"

namespace {

using namespace lmo;

std::vector<std::byte> pattern_payload(std::size_t bytes, std::uint8_t salt) {
  std::vector<std::byte> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    payload[i] = static_cast<std::byte>((i * 37 + salt) & 0xff);
  }
  return payload;
}

void append_raw(const std::string& path, const std::string& garbage) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

store::StoreConfig small_store_config() {
  store::StoreConfig config;
  config.block_bytes = 64;
  return config;
}

/// A journaled file-backed store in a temp dir, with the paths exposed so
/// tests can kill it (drop it) and replay what survived.
struct JournaledStore {
  explicit JournaledStore(const util::TempDir& dir,
                          store::StoreConfig config = small_store_config())
      : blocks_path(dir.file("spill.blocks")),
        wal_path(dir.file("spill.wal")),
        store(std::make_unique<store::FileBackend>(
                  blocks_path, config.block_bytes,
                  store::FileBackend::OpenMode::kTruncate),
              config) {
    store.set_journal(std::make_unique<recover::WalManifest>(
        wal_path, recover::WalManifest::OpenMode::kTruncate));
  }

  std::string blocks_path;
  std::string wal_path;
  store::BlockStore store;
};

std::size_t open_descriptor_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// ----------------------------------------------------------- manifest --

TEST(WalManifest, FailedOpenClosesItsDescriptor) {
  // open(O_RDWR) succeeds on a FIFO but lseek fails with ESPIPE, so the
  // constructor throws after it already holds a descriptor.
  util::TempDir dir("recover_test");
  const std::string fifo = dir.file("journal.fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::size_t before = open_descriptor_count();
  EXPECT_THROW(recover::WalManifest(fifo,
                                    recover::WalManifest::OpenMode::kAppend),
               util::CheckError);
  EXPECT_EQ(open_descriptor_count(), before);
}

// ------------------------------------------------------------- replay --

TEST(WalReplay, MissingFileIsEmptyState) {
  util::TempDir dir("recover_test");
  const auto replay = recover::replay_wal(dir.file("absent.wal"));
  EXPECT_EQ(replay.records, 0u);
  EXPECT_EQ(replay.epoch, 0u);
  EXPECT_TRUE(replay.state.entries.empty());
  EXPECT_EQ(replay.state.next_block, 0u);
}

TEST(WalReplay, CommittedEntriesSurviveReplay) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  const auto payload = pattern_payload(200, 1);
  const store::BlockHandle handle = js.store.put(payload, "layer0");

  const auto replay = recover::replay_wal(js.wal_path);
  ASSERT_EQ(replay.state.entries.count("layer0"), 1u);
  const store::BlockHandle& recovered = replay.state.entries.at("layer0");
  EXPECT_EQ(recovered.blocks, handle.blocks);
  EXPECT_EQ(recovered.bytes, handle.bytes);
  EXPECT_EQ(recovered.crc, handle.crc);
  EXPECT_EQ(replay.orphan_blocks, 0u);
  EXPECT_EQ(replay.truncated_bytes, 0u);
}

TEST(WalReplay, ReplayIsIdempotent) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  js.store.put(pattern_payload(300, 2), "a");
  store::BlockHandle b = js.store.put(pattern_payload(130, 3), "b");
  js.store.put(pattern_payload(64, 4), "c");
  js.store.release(b);  // journaled free

  const auto once = recover::replay_wal(js.wal_path);
  const auto twice = recover::replay_wal(js.wal_path);
  EXPECT_EQ(once.records, twice.records);
  EXPECT_EQ(once.epoch, twice.epoch);
  EXPECT_EQ(once.orphan_blocks, twice.orphan_blocks);
  EXPECT_EQ(once.state.next_block, twice.state.next_block);
  EXPECT_EQ(once.state.free_blocks, twice.state.free_blocks);
  EXPECT_EQ(once.state.block_crc, twice.state.block_crc);
  ASSERT_EQ(once.state.entries.size(), twice.state.entries.size());
  for (const auto& [key, handle] : once.state.entries) {
    ASSERT_EQ(twice.state.entries.count(key), 1u);
    EXPECT_EQ(twice.state.entries.at(key).blocks, handle.blocks);
  }
  // The freed entry is gone; its blocks are allocatable again.
  EXPECT_EQ(once.state.entries.count("b"), 0u);
}

TEST(WalReplay, TornTailIsTruncatedExactlyOnce) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  js.store.put(pattern_payload(100, 5), "intact");
  const std::uint64_t clean_size = file_size(js.wal_path);

  // A record whose tail never reached the disk: frame header promising
  // more bytes than the file holds.
  append_raw(js.wal_path, std::string("\x40\x00\x00\x00\xde\xad\xbe\xef", 8));
  append_raw(js.wal_path, "partial body");

  const auto replay = recover::replay_wal(js.wal_path);
  EXPECT_GT(replay.truncated_bytes, 0u);
  EXPECT_EQ(replay.state.entries.count("intact"), 1u);
  // The repair truncated the file in place: a second scan sees no tail.
  EXPECT_EQ(file_size(js.wal_path), clean_size);
  const auto again = recover::replay_wal(js.wal_path);
  EXPECT_EQ(again.truncated_bytes, 0u);
  EXPECT_EQ(again.records, replay.records);
}

TEST(WalReplay, CorruptRecordStopsReplayAtLastGoodPrefix) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  js.store.put(pattern_payload(100, 6), "first");
  const std::uint64_t good = file_size(js.wal_path);
  js.store.put(pattern_payload(100, 7), "second");

  // Flip one byte inside the second put's records: CRC framing must stop
  // replay at the last intact prefix, dropping "second" but never "first".
  {
    std::fstream f(js.wal_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(good + 9));
    const char byte = 0x5a;
    f.write(&byte, 1);
  }
  const auto replay = recover::replay_wal(js.wal_path);
  EXPECT_EQ(replay.state.entries.count("first"), 1u);
  EXPECT_EQ(replay.state.entries.count("second"), 0u);
  EXPECT_GT(replay.truncated_bytes, 0u);
}

TEST(WalReplay, OrphanBlocksAreFreedWithExactAccounting) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  js.store.put(pattern_payload(64 * 3, 8), "committed");

  // Simulate a crash between alloc and commit: journal an allocation that
  // never commits (the store process died mid-write).
  {
    recover::WalManifest wal(js.wal_path,
                             recover::WalManifest::OpenMode::kAppend);
    wal.record_alloc({7, 8, 9});
    wal.record_write(7, 0x1234u);
  }

  telemetry::MetricsRegistry metrics;
  const auto replay = recover::replay_wal(js.wal_path, &metrics);
  EXPECT_EQ(replay.orphan_blocks, 3u);
  EXPECT_EQ(metrics.counter("recover.replay.orphan_blocks").value(), 3u);
  // Free list covers everything below the high-water mark except the
  // committed entry's blocks — orphans included (that is the GC).
  const std::size_t committed = replay.state.entries.at("committed")
                                    .blocks.size();
  EXPECT_EQ(replay.state.free_blocks.size(),
            replay.state.next_block - committed);
  EXPECT_EQ(replay.state.next_block, 10u);  // block 9 was seen allocated
}

TEST(WalCompact, CompactionPreservesStateAndDropsOrphans) {
  util::TempDir dir("recover_test");
  JournaledStore js(dir);
  js.store.put(pattern_payload(150, 9), "keep");
  {
    recover::WalManifest wal(js.wal_path,
                             recover::WalManifest::OpenMode::kAppend);
    wal.record_alloc({20, 21});  // orphans to be GC'd
    wal.record_epoch(5);
  }
  const auto before = recover::replay_wal(js.wal_path);
  EXPECT_EQ(before.orphan_blocks, 2u);

  recover::compact_wal(js.wal_path, before.state, before.epoch);
  const auto after = recover::replay_wal(js.wal_path);
  EXPECT_EQ(after.orphan_blocks, 0u);
  EXPECT_EQ(after.epoch, 5u);
  ASSERT_EQ(after.state.entries.count("keep"), 1u);
  EXPECT_EQ(after.state.entries.at("keep").blocks,
            before.state.entries.at("keep").blocks);
  // Compaction keeps only committed entries, so the high-water mark may
  // shrink (orphans above the last committed block become plain unwritten
  // space instead of free-list entries). The invariant is weaker and
  // sufficient: every block below the new mark is either committed or
  // free, and nothing committed was lost.
  EXPECT_LE(after.state.next_block, before.state.next_block);
  EXPECT_EQ(after.state.free_blocks.size() +
                after.state.entries.at("keep").blocks.size(),
            after.state.next_block);
}

// ------------------------------------------------- adoption / sweep --

TEST(BlockStoreRecovery, AdoptReturnsSurvivingPayloadWithoutRewrite) {
  util::TempDir dir("recover_test");
  const auto payload = pattern_payload(250, 10);
  store::BlockHandle original;
  std::string wal_path;
  std::string blocks_path;
  {
    JournaledStore js(dir);
    original = js.store.put(payload, "weights.3");
    wal_path = js.wal_path;
    blocks_path = js.blocks_path;
  }  // "crash": the store and its journal are destroyed

  auto replay = recover::replay_wal(wal_path);
  store::BlockStore recovered(
      std::make_unique<store::FileBackend>(
          blocks_path, small_store_config().block_bytes,
          store::FileBackend::OpenMode::kPreserve),
      small_store_config());
  recovered.adopt_state(std::move(replay.state));

  const auto adopted =
      recovered.adopt("weights.3", original.crc, original.bytes);
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(adopted->blocks, original.blocks);
  EXPECT_EQ(recovered.get(*adopted), payload);
  EXPECT_EQ(recovered.release_unclaimed(), 0u);
}

TEST(BlockStoreRecovery, AdoptMismatchFreesStaleBlocks) {
  util::TempDir dir("recover_test");
  std::string wal_path;
  std::string blocks_path;
  std::uint64_t stale_blocks = 0;
  {
    JournaledStore js(dir);
    stale_blocks = js.store.put(pattern_payload(200, 11), "kv.0").blocks.size();
    wal_path = js.wal_path;
    blocks_path = js.blocks_path;
  }

  auto replay = recover::replay_wal(wal_path);
  store::BlockStore recovered(
      std::make_unique<store::FileBackend>(
          blocks_path, small_store_config().block_bytes,
          store::FileBackend::OpenMode::kPreserve),
      small_store_config());
  recovered.adopt_state(std::move(replay.state));

  // Content changed across the crash: the stale entry must be freed, and
  // the caller re-puts.
  EXPECT_FALSE(recovered.adopt("kv.0", 0xdeadbeefu, 200).has_value());
  EXPECT_EQ(recovered.blocks_in_use(), 0u);
  (void)stale_blocks;
}

TEST(BlockStoreRecovery, ReleaseUnclaimedSweepsLeftoverEntries) {
  util::TempDir dir("recover_test");
  std::string wal_path;
  std::string blocks_path;
  {
    JournaledStore js(dir);
    js.store.put(pattern_payload(100, 12), "stale.a");
    js.store.put(pattern_payload(100, 13), "stale.b");
    wal_path = js.wal_path;
    blocks_path = js.blocks_path;
  }
  auto replay = recover::replay_wal(wal_path);
  store::BlockStore recovered(
      std::make_unique<store::FileBackend>(
          blocks_path, small_store_config().block_bytes,
          store::FileBackend::OpenMode::kPreserve),
      small_store_config());
  recovered.adopt_state(std::move(replay.state));
  EXPECT_GT(recovered.blocks_in_use(), 0u);
  EXPECT_EQ(recovered.release_unclaimed(), 2u);
  EXPECT_EQ(recovered.blocks_in_use(), 0u);  // zero leaked blocks
}

// ------------------------------------------------------ crash points --

TEST(CrashPoint, FiresAtExactCheckIndexAndConsumesNoDraws) {
  util::ScopedFaultInjection chaos(99);
  util::FaultSpec spec;
  spec.crash_at_op = 2;
  chaos.arm("test.crash", spec);

  struct Fired : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  chaos.set_crash_handler(
      [](const std::string& site) { throw Fired(site); });

  auto& injector = util::FaultInjector::instance();
  injector.maybe_crash("test.crash");  // check 0
  injector.maybe_crash("test.crash");  // check 1
  EXPECT_THROW(injector.maybe_crash("test.crash"), Fired);  // check 2
  injector.maybe_crash("test.crash");  // past the schedule: never again

  EXPECT_EQ(chaos.count("test.crash", util::FaultKind::kCrashPoint), 1u);
  // Crash checks never consume draws or ops: the site state is pristine,
  // so arming a crash point cannot shift other fault classes' schedules.
  for (const auto& s : chaos.site_states()) {
    if (s.site != "test.crash") continue;
    EXPECT_EQ(s.ops, 0);
    EXPECT_EQ(s.draws, 0u);
  }
}

// ----------------------------------------------- supervised recovery --

runtime::RuntimeConfig supervised_config() {
  runtime::RuntimeConfig config;
  config.spec = model::ModelSpec::tiny(2, 32, 4, 64);
  config.weight_bits = 8;
  config.device_layers = 0;
  config.disk_layers = 1;
  config.disk_capacity = 4u << 20;
  config.spill_block_bytes = 4096;
  config.prefetch_threads = 0;
  config.compute_threads = 0;
  config.recovery.retry_backoff_seconds = 1e-6;
  config.sampling.temperature = 0.9;  // exercise the RNG capture
  config.sampling.top_k = 8;
  return config;
}

TEST(RecoveryManager, RecoversAbandonedRunByteIdentically) {
  const auto config = supervised_config();
  const std::vector<std::vector<std::int64_t>> prompts = {{1, 2, 3, 4}};
  const std::int64_t gen_len = 8;

  // Uninterrupted supervised reference.
  std::vector<std::vector<std::int64_t>> reference;
  {
    util::TempDir dir("recover_test");
    recover::RecoveryManager manager({dir.path(), 2});
    auto gen = manager.start(config);
    gen->begin(prompts, gen_len);
    while (!gen->done()) {
      gen->step();
      manager.note_step(*gen);
    }
    reference = gen->finish().tokens;
  }

  // Crash after 5 tokens (two checkpoints at interval 2 are durable), then
  // recover in the same process from the on-disk state alone.
  util::TempDir dir("recover_test");
  {
    recover::RecoveryManager manager({dir.path(), 2});
    auto gen = manager.start(config);
    gen->begin(prompts, gen_len);
    while (gen->step_index() < 5) {
      gen->step();
      manager.note_step(*gen);
    }
    // Abandoned: the Generator is destroyed without finish().
  }

  recover::RecoveryManager manager({dir.path(), 2});
  recover::RecoveredSession session = manager.recover();
  ASSERT_TRUE(session.resumed);
  EXPECT_GE(session.epoch, 1u);
  runtime::Generator& gen = *session.generator;
  EXPECT_GE(gen.step_index(), 2);
  EXPECT_LE(gen.step_index(), 5);
  while (!gen.done()) {
    gen.step();
    manager.note_step(gen);
  }
  EXPECT_EQ(gen.finish().tokens, reference);

  // recover.* accounting: exactly one recovery, one resume.
  auto& metrics = session.generator->manager().metrics();
  EXPECT_EQ(metrics.counter("recover.recoveries").value(), 1u);
  EXPECT_EQ(metrics.counter("recover.resumes").value(), 1u);
}

TEST(RecoveryManager, RecoverBeforeFirstCheckpointFallsBackToFreshStart) {
  const auto config = supervised_config();
  util::TempDir dir("recover_test");
  {
    recover::RecoveryManager manager({dir.path(), 64});
    auto gen = manager.start(config);  // spills journal, but no checkpoint
    gen->begin({{1, 2, 3}}, 4);
  }
  recover::RecoveryManager manager({dir.path(), 64});
  recover::RecoveredSession session = manager.recover(&config);
  EXPECT_FALSE(session.resumed);
  ASSERT_NE(session.generator, nullptr);
  // Without a fallback config there is nothing to rebuild from.
  recover::RecoveryManager bare({dir.path(), 64});
  EXPECT_THROW(bare.recover(), util::CheckError);
}

TEST(RecoveryManager, GeneratorRecoverEntryPointFinishesTheRun) {
  const auto config = supervised_config();
  const std::vector<std::vector<std::int64_t>> prompts = {{5, 6, 7}};
  const std::int64_t gen_len = 6;

  std::vector<std::vector<std::int64_t>> reference;
  {
    util::TempDir ref_dir("recover_test");
    recover::RecoveryManager manager({ref_dir.path(), 2});
    auto gen = manager.start(config);
    gen->begin(prompts, gen_len);
    while (!gen->done()) {
      gen->step();
      manager.note_step(*gen);
    }
    reference = gen->finish().tokens;
  }

  util::TempDir dir("recover_test");
  {
    recover::RecoveryManager manager({dir.path(), 2});
    auto gen = manager.start(config);
    gen->begin(prompts, gen_len);
    while (gen->step_index() < 3) {
      gen->step();
      manager.note_step(*gen);
    }
  }
  auto gen = runtime::Generator::recover(dir.path());
  ASSERT_NE(gen, nullptr);
  while (!gen->done()) gen->step();
  EXPECT_EQ(gen->finish().tokens, reference);
}

}  // namespace
