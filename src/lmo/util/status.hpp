// Typed error taxonomy for the offloading runtime.
//
// The seed code threw CheckError for everything; that conflates three very
// different situations which demand different reactions:
//
//   * CheckError        — a contract violation (caller bug). Never retried.
//   * TransferError     — a *transient* host↔device transfer failure (the
//                         PCIe path is the fragile, contended resource).
//                         Retryable with backoff; recoverable by falling
//                         back to a synchronous transfer.
//   * ResourceExhausted — a memory pool ran out of capacity. Recoverable by
//                         degradation (evict staged entries, re-quantize)
//                         rather than by retrying.
//
// ResourceExhausted derives from CheckError so code (and tests) written
// against the seed's fail-fast behavior keeps working, while new recovery
// paths can catch the precise type.
#pragma once

#include <stdexcept>
#include <string>

#include "lmo/util/check.hpp"

namespace lmo::util {

/// An invalid configuration, reported with field-named messages (see
/// util/validate.hpp). A CheckError subtype: configs are caller input, and
/// every validate() predates the typed taxonomy, so fail-fast callers and
/// tests written against CheckError keep working.
class ConfigError : public CheckError {
 public:
  explicit ConfigError(const std::string& what) : CheckError(what) {}
};

/// A transient host↔device transfer failure. Retry with backoff; if the
/// budget is exhausted the error propagates to the caller.
class TransferError : public std::runtime_error {
 public:
  explicit TransferError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A capacity-enforcing pool refused an allocation. Recoverable through the
/// degradation ladder (see docs/robustness.md); still a CheckError subtype
/// so fail-fast callers observe the seed behavior.
class ResourceExhausted : public CheckError {
 public:
  explicit ResourceExhausted(const std::string& what) : CheckError(what) {}
};

/// A disk-tier block store operation failed after its bounded retry budget
/// (device read errors, short writes that read-back verification could not
/// repair). A TransferError subtype: the disk link is just the slowest rung
/// of the same fragile transfer hierarchy, so existing prefetch fallback
/// paths (catch TransferError → synchronous retry) handle it unchanged.
class StorageError : public TransferError {
 public:
  explicit StorageError(const std::string& what) : TransferError(what) {}
};

/// A verified region (host weight shard, KV row, shared prefix block)
/// failed its checksum and the repair ladder could not restore it (see
/// lmo/integrity/). A runtime_error, not a CheckError: corruption is an
/// environmental fault, never a caller bug, and servers recover by rolling
/// the session back to its last checkpoint rather than crashing.
class DataCorruption : public std::runtime_error {
 public:
  explicit DataCorruption(const std::string& what)
      : std::runtime_error(what) {}
};

/// Base class for checkpoint load failures (see lmo/ckpt/). A checkpoint is
/// external input, not a caller contract, so these are runtime_errors:
/// rejecting a bad file must never look like a bug in the caller, and a
/// server can catch the base type and fall back to a cold start.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The file ends before the declared payload does (killed mid-write,
/// partial copy). Retryable against a replica; never partially applied.
class CheckpointTruncated : public CheckpointError {
 public:
  explicit CheckpointTruncated(const std::string& what)
      : CheckpointError(what) {}
};

/// Bad magic or a CRC32 mismatch: the bytes are not (or are no longer) a
/// valid checkpoint. Not retryable against the same file.
class CheckpointCorrupt : public CheckpointError {
 public:
  explicit CheckpointCorrupt(const std::string& what)
      : CheckpointError(what) {}
};

/// Structurally valid file written by an incompatible format version.
class CheckpointVersionMismatch : public CheckpointError {
 public:
  explicit CheckpointVersionMismatch(const std::string& what)
      : CheckpointError(what) {}
};

/// Valid checkpoint, wrong target: the restoring runtime's configuration
/// (model dims, KV window, quantization) differs from the snapshot's.
class CheckpointMismatch : public CheckpointError {
 public:
  explicit CheckpointMismatch(const std::string& what)
      : CheckpointError(what) {}
};

}  // namespace lmo::util
