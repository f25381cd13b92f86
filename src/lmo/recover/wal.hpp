// Write-ahead manifest for the disk spill store.
//
// BlockStore mutations are journaled *before* they take effect, in an
// append-only file of CRC-framed records:
//
//   file header:  u64 magic "LMOWAL\0\0" | u32 version
//   each record:  u32 body_len | u32 body_crc | body
//   body:         u8 type | type-specific fields (ckpt::ByteWriter encoding)
//
// Record types: alloc (blocks handed out), write (one block's fingerprint),
// commit (a keyed payload is fully durable), free (blocks returned), epoch
// (a RecoveryManager checkpoint boundary). Commit/free/epoch records are
// *barriers*: the append fsyncs, and the store syncs the data backend
// before asking for a commit — so a committed record never points at
// unsynced blocks.
//
// Recovery (replay_wal) is a pure function of the file prefix: it replays
// records until the first torn frame (short length or CRC mismatch),
// truncates that tail away, and reconstructs the committed entry table,
// per-block fingerprints and free list. Blocks that were allocated but
// never committed are orphans — counted and returned to the free list.
// Replaying the same file twice yields identical state (idempotence),
// which the recover tests assert property-style.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "lmo/store/block_store.hpp"

namespace lmo::telemetry {
class MetricsRegistry;
}  // namespace lmo::telemetry

namespace lmo::recover {

inline constexpr std::uint64_t kWalMagic = 0x00004C41574F4D4CULL;  // "LMOWAL\0\0"
inline constexpr std::uint32_t kWalVersion = 1;

/// Crash-point fault sites (util::FaultInjector::maybe_crash): one inside
/// every journal append, one immediately before each fsync barrier.
inline constexpr const char* kJournalAppendSite = "recover.journal.append";
inline constexpr const char* kJournalFsyncSite = "recover.fsync";

/// What a recovery scan found. `state` is ready for
/// BlockStore::adopt_state(); the counters feed the recover.* metrics and
/// the crash-drill assertions.
struct WalReplayResult {
  store::RecoveredState state;
  std::uint64_t epoch = 0;            ///< highest epoch record replayed
  std::uint64_t records = 0;          ///< intact records replayed
  std::uint64_t orphan_blocks = 0;    ///< allocated, never committed -> freed
  std::uint64_t truncated_bytes = 0;  ///< torn tail removed from the file
};

/// The journal the store appends to. Implements store::BlockJournal so the
/// store never links against this library; thread-safe (spills may race).
class WalManifest final : public store::BlockJournal {
 public:
  enum class OpenMode {
    kTruncate,  ///< fresh supervised run: start an empty journal
    kAppend,    ///< post-recovery: continue after the last intact record
  };

  WalManifest(const std::string& path, OpenMode mode);
  ~WalManifest() override;

  void record_alloc(const std::vector<std::uint32_t>& blocks) override;
  void record_write(std::uint32_t block, std::uint32_t crc) override;
  void record_commit(const std::string& key,
                     const store::BlockHandle& handle) override;
  void record_free(const std::vector<std::uint32_t>& blocks) override;

  /// RecoveryManager checkpoint boundary; barrier.
  void record_epoch(std::uint64_t epoch);
  /// Explicit fsync barrier.
  void barrier();

  const std::string& path() const { return path_; }

 private:
  void append_locked(const std::vector<std::byte>& body, bool sync);

  std::string path_;
  int fd_ = -1;
  std::mutex mutex_;
};

/// Replay the journal at `path`: reconcile, truncate any torn tail in
/// place, and return the recovered state. A missing file is an empty
/// journal (fresh result). When `metrics` is non-null the scan exports
/// recover.replay.* and records a "recover.replay" span.
WalReplayResult replay_wal(const std::string& path,
                           telemetry::MetricsRegistry* metrics = nullptr);

/// Rewrite the journal to its minimal equivalent — one alloc/write/commit
/// group per live entry plus the epoch record — via temp file + fsync +
/// rename + directory fsync (util::publish_file). Run after replay (before
/// reopening the manifest for append) so orphan records from the dead
/// process do not accrete across crashes.
void compact_wal(const std::string& path, const store::RecoveredState& state,
                 std::uint64_t epoch);

}  // namespace lmo::recover
