#include "lmo/recover/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "lmo/ckpt/binary_io.hpp"
#include "lmo/telemetry/metrics.hpp"
#include "lmo/telemetry/trace.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/durable.hpp"
#include "lmo/util/fault.hpp"

namespace lmo::recover {
namespace {

enum RecordType : std::uint8_t {
  kAlloc = 1,
  kWrite = 2,
  kCommit = 3,
  kFree = 4,
  kEpoch = 5,
};

constexpr std::size_t kFileHeaderBytes = 8 + 4;
constexpr std::size_t kFrameBytes = 4 + 4;  // body_len + body_crc

std::vector<std::byte> file_header() {
  ckpt::ByteWriter header;
  header.u64(kWalMagic);
  header.u32(kWalVersion);
  return header.take();
}

/// Frame a record body (type byte included): length + CRC, then the body.
std::vector<std::byte> frame(const std::vector<std::byte>& body) {
  ckpt::ByteWriter head;
  head.u32(static_cast<std::uint32_t>(body.size()));
  head.u32(ckpt::crc32(body));
  std::vector<std::byte> out = head.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

WalManifest::WalManifest(const std::string& path, OpenMode mode)
    : path_(path) {
  const int flags =
      O_RDWR | O_CREAT | (mode == OpenMode::kTruncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  LMO_CHECK_MSG(fd_ >= 0, "WalManifest: cannot open " + path + ": " +
                              std::strerror(errno));
  // A throwing constructor never runs the destructor: close fd_ here.
  try {
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    LMO_CHECK_MSG(size >= 0, "WalManifest: lseek(" + path + ") failed");
    if (static_cast<std::size_t>(size) < kFileHeaderBytes) {
      // Fresh (or header-torn) journal: stamp the header and start clean. A
      // torn header means no barrier ever completed, so nothing is lost.
      LMO_CHECK_MSG(::ftruncate(fd_, 0) == 0,
                    "WalManifest: ftruncate(" + path + ") failed");
      LMO_CHECK_MSG(::lseek(fd_, 0, SEEK_SET) == 0,
                    "WalManifest: lseek(" + path + ") failed");
      util::write_all(fd_, file_header(), path_);
      util::fsync_fd(fd_, path_);
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

WalManifest::~WalManifest() {
  if (fd_ >= 0) ::close(fd_);
}

void WalManifest::append_locked(const std::vector<std::byte>& body,
                                bool sync) {
  auto& injector = util::FaultInjector::instance();
  // Crash with the record half-written (the kernel may persist any prefix):
  // replay must stop at the torn frame and truncate it away.
  injector.maybe_crash(kJournalAppendSite);
  util::write_all(fd_, frame(body), path_);
  if (sync) {
    // Crash after the record reached the page cache but before the fsync
    // barrier: the record may or may not survive — both outcomes must
    // recover (the commit protocol never acks before the barrier returns).
    injector.maybe_crash(kJournalFsyncSite);
    util::fsync_fd(fd_, path_);
  }
}

void WalManifest::record_alloc(const std::vector<std::uint32_t>& blocks) {
  ckpt::ByteWriter body;
  body.u8(kAlloc);
  body.u32(static_cast<std::uint32_t>(blocks.size()));
  for (std::uint32_t b : blocks) body.u32(b);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(body.buffer(), /*sync=*/false);
}

void WalManifest::record_write(std::uint32_t block, std::uint32_t crc) {
  ckpt::ByteWriter body;
  body.u8(kWrite);
  body.u32(block);
  body.u32(crc);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(body.buffer(), /*sync=*/false);
}

void WalManifest::record_commit(const std::string& key,
                                const store::BlockHandle& handle) {
  ckpt::ByteWriter body;
  body.u8(kCommit);
  body.string(key);
  body.u64(handle.bytes);
  body.u32(handle.crc);
  body.u32(static_cast<std::uint32_t>(handle.blocks.size()));
  for (std::uint32_t b : handle.blocks) body.u32(b);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(body.buffer(), /*sync=*/true);
}

void WalManifest::record_free(const std::vector<std::uint32_t>& blocks) {
  ckpt::ByteWriter body;
  body.u8(kFree);
  body.u32(static_cast<std::uint32_t>(blocks.size()));
  for (std::uint32_t b : blocks) body.u32(b);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(body.buffer(), /*sync=*/true);
}

void WalManifest::record_epoch(std::uint64_t epoch) {
  ckpt::ByteWriter body;
  body.u8(kEpoch);
  body.u64(epoch);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(body.buffer(), /*sync=*/true);
}

void WalManifest::barrier() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& injector = util::FaultInjector::instance();
  injector.maybe_crash(kJournalFsyncSite);
  util::fsync_fd(fd_, path_);
}

WalReplayResult replay_wal(const std::string& path,
                           telemetry::MetricsRegistry* metrics) {
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                             "recover.replay", "recover");
  WalReplayResult result;

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return result;  // no journal: empty store
  const std::streamsize file_bytes = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> raw(static_cast<std::size_t>(file_bytes));
  if (file_bytes > 0) {
    in.read(reinterpret_cast<char*>(raw.data()), file_bytes);
    LMO_CHECK_MSG(in.gcount() == file_bytes,
                  "replay_wal: short read of " + path);
  }
  in.close();

  // Header: anything short of an intact header means no record ever became
  // durable — the whole file is a torn tail.
  std::size_t good = 0;
  if (raw.size() >= kFileHeaderBytes) {
    ckpt::ByteReader header(
        std::span<const std::byte>(raw.data(), kFileHeaderBytes));
    if (header.u64() == kWalMagic && header.u32() == kWalVersion) {
      good = kFileHeaderBytes;
    }
  }

  // Replay state. `pending` holds blocks allocated but not yet committed
  // or freed; whatever remains at the end is orphaned by the crash.
  std::set<std::uint32_t> pending;
  std::map<std::uint32_t, std::uint32_t> block_crc;
  std::uint32_t next_block = 0;
  auto& entries = result.state.entries;
  const auto note_block = [&](std::uint32_t b) {
    next_block = std::max(next_block, b + 1);
  };

  std::size_t cursor = good;
  while (cursor + kFrameBytes <= raw.size()) {
    ckpt::ByteReader frame_reader(
        std::span<const std::byte>(raw.data() + cursor, kFrameBytes));
    const std::uint32_t body_len = frame_reader.u32();
    const std::uint32_t body_crc = frame_reader.u32();
    if (cursor + kFrameBytes + body_len > raw.size()) break;  // torn tail
    const std::span<const std::byte> body(raw.data() + cursor + kFrameBytes,
                                          body_len);
    if (ckpt::crc32(body) != body_crc) break;  // torn or corrupt record
    ckpt::ByteReader reader(body);
    const std::uint8_t type = reader.u8();
    switch (type) {
      case kAlloc: {
        const std::uint32_t count = reader.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t b = reader.u32();
          pending.insert(b);
          note_block(b);
        }
        break;
      }
      case kWrite: {
        const std::uint32_t b = reader.u32();
        block_crc[b] = reader.u32();
        note_block(b);
        break;
      }
      case kCommit: {
        store::BlockHandle handle;
        const std::string key = reader.string();
        handle.bytes = reader.u64();
        handle.crc = reader.u32();
        const std::uint32_t count = reader.u32();
        handle.blocks.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t b = reader.u32();
          handle.blocks.push_back(b);
          pending.erase(b);
          note_block(b);
        }
        entries[key] = std::move(handle);
        break;
      }
      case kFree: {
        const std::uint32_t count = reader.u32();
        std::set<std::uint32_t> freed;
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint32_t b = reader.u32();
          freed.insert(b);
          pending.erase(b);
          note_block(b);
        }
        // A committed entry overlapping freed blocks is dead — keyed by
        // content, not by caller bookkeeping, so replay stays robust even
        // if a free raced the crash.
        for (auto it = entries.begin(); it != entries.end();) {
          const bool overlaps = std::any_of(
              it->second.blocks.begin(), it->second.blocks.end(),
              [&](std::uint32_t b) { return freed.count(b) > 0; });
          it = overlaps ? entries.erase(it) : ++it;
        }
        break;
      }
      case kEpoch: {
        result.epoch = std::max(result.epoch, reader.u64());
        break;
      }
      default:
        // Unknown record type in an intact frame: a future-version journal.
        // Stop here — replaying past semantics we don't understand would
        // corrupt, truncating keeps the prefix contract.
        goto done;
    }
    ++result.records;
    cursor += kFrameBytes + body_len;
    good = cursor;
  }
done:
  result.truncated_bytes = raw.size() - good;
  if (result.truncated_bytes > 0) {
    // Repair in place so the reopened manifest appends after the last
    // intact record; idempotent (a second replay sees no tail).
    LMO_CHECK_MSG(::truncate(path.c_str(), static_cast<off_t>(good)) == 0,
                  "replay_wal: truncate(" + path + ") failed: " +
                      std::strerror(errno));
  }

  result.orphan_blocks = pending.size();

  // Reconstruct the free list: everything below the high-water mark that
  // no committed entry occupies — orphans included, which is the GC.
  auto& state = result.state;
  state.next_block = next_block;
  state.block_crc.assign(next_block, 0);
  for (const auto& [b, crc] : block_crc) state.block_crc[b] = crc;
  std::vector<bool> committed(next_block, false);
  for (const auto& [key, handle] : entries) {
    for (std::uint32_t b : handle.blocks) committed[b] = true;
  }
  for (std::uint32_t b = 0; b < next_block; ++b) {
    if (!committed[b]) state.free_blocks.push_back(b);
  }

  if (metrics != nullptr) {
    metrics->counter("recover.replay.records").add(result.records);
    metrics->counter("recover.replay.orphan_blocks")
        .add(result.orphan_blocks);
    metrics->counter("recover.replay.truncated_bytes")
        .add(result.truncated_bytes);
    metrics->gauge("recover.replay.entries")
        .set(static_cast<double>(entries.size()));
  }
  return result;
}

void compact_wal(const std::string& path,
                 const store::RecoveredState& state, std::uint64_t epoch) {
  telemetry::ScopedSpan span(telemetry::TraceRecorder::global(),
                             "recover.compact", "recover");
  std::vector<std::byte> journal = file_header();
  const auto append = [&journal](const std::vector<std::byte>& body) {
    const auto framed = frame(body);
    journal.insert(journal.end(), framed.begin(), framed.end());
  };
  for (const auto& [key, handle] : state.entries) {
    ckpt::ByteWriter alloc;
    alloc.u8(kAlloc);
    alloc.u32(static_cast<std::uint32_t>(handle.blocks.size()));
    for (std::uint32_t b : handle.blocks) alloc.u32(b);
    append(alloc.buffer());
    for (std::uint32_t b : handle.blocks) {
      ckpt::ByteWriter write_rec;
      write_rec.u8(kWrite);
      write_rec.u32(b);
      write_rec.u32(b < state.block_crc.size() ? state.block_crc[b] : 0);
      append(write_rec.buffer());
    }
    ckpt::ByteWriter commit;
    commit.u8(kCommit);
    commit.string(key);
    commit.u64(handle.bytes);
    commit.u32(handle.crc);
    commit.u32(static_cast<std::uint32_t>(handle.blocks.size()));
    for (std::uint32_t b : handle.blocks) commit.u32(b);
    append(commit.buffer());
  }
  ckpt::ByteWriter epoch_rec;
  epoch_rec.u8(kEpoch);
  epoch_rec.u64(epoch);
  append(epoch_rec.buffer());
  // Atomic publish: a crash leaves either journal, both of which replay to
  // the same state.
  util::publish_file(path, {journal});
}

}  // namespace lmo::recover
