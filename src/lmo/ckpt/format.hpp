// Checkpoint file envelope: a fixed header followed by an opaque payload
// and a CRC-32 trailer.
//
//   offset  size  field
//   0       8     magic "LMOCKPT\0"
//   8       4     format version (u32, little-endian)
//   12      4     payload kind (u32) — what the payload serializes
//   16      8     payload length in bytes (u64)
//   24      N     payload
//   24+N    4     CRC-32 of the payload
//
// Every failure mode maps to one typed util/status error, checked in this
// order: unreadable file / short header → CheckpointTruncated, bad magic →
// CheckpointCorrupt, wrong version → CheckpointVersionMismatch, wrong kind
// → CheckpointMismatch, short payload → CheckpointTruncated, CRC mismatch
// → CheckpointCorrupt. A reader never sees a partially-validated payload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmo::ckpt {

inline constexpr std::uint64_t kMagic = 0x0054504B434F4D4CULL;  // "LMOCKPT\0"
// Version 2: RuntimeConfig gained prefix_share / kv_block_tokens and the
// KV codec gained the shared-chain tag (kvshare).
// Version 3: RuntimeConfig gained the disk-tier fingerprint fields
// (disk_layers, disk_capacity, spill_block_bytes) and kRecoveryMeta joined
// the payload kinds.
// Version 4: one KV cache codec over visible rows (the per-backend flavor
// tags are gone) and RuntimeConfig dropped the backend selector and page
// size. v3 files are rejected with CheckpointVersionMismatch; there is no
// v3 reader.
inline constexpr std::uint32_t kFormatVersion = 4;

/// What a checkpoint payload contains. Stored in the header so `lmo resume`
/// can reject, say, a future scheduler snapshot with a clear error instead
/// of a decode failure deep inside the generator codec.
enum class PayloadKind : std::uint32_t {
  kGeneratorState = 1,
  kRecoveryMeta = 2,  ///< RecoveryManager epoch record (see lmo/recover/)
};

/// Crash-point fault site (util::FaultInjector::maybe_crash) checked twice
/// inside write_checkpoint_file: before the temp file is written and after
/// fsync, immediately before the rename publishes it.
inline constexpr const char* kPublishSite = "ckpt.publish";

/// Atomically write `payload` under the envelope: the bytes land in
/// `path`.tmp, are fsynced, and only then renamed over `path`, and the
/// directory is fsynced after the rename (util::publish_file) — a crash
/// or power loss at any instruction leaves either the previous checkpoint
/// or the new one, never a torn file. Throws CheckError on I/O failure.
void write_checkpoint_file(const std::string& path, PayloadKind kind,
                           const std::vector<std::byte>& payload);

/// Read and fully validate the envelope at `path`; returns the payload.
/// Throws the typed CheckpointError taxonomy described above.
std::vector<std::byte> read_checkpoint_file(const std::string& path,
                                            PayloadKind expected_kind);

}  // namespace lmo::ckpt
