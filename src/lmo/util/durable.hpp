// Durable file writes: every "write a temp file, fsync, rename" publisher
// (checkpoints, the compacted WAL) goes through publish_file().
//
// rename() swaps the name atomically, but the directory entry it changes
// lives in the parent directory's own metadata: until the directory is
// fsynced, a power loss can bring the old name back. publish_file() fsyncs
// the directory after the rename.
#pragma once

#include <functional>
#include <initializer_list>
#include <span>
#include <string>

namespace lmo::util {

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR. `path`
/// names the file in the CheckError thrown on failure.
void write_all(int fd, std::span<const std::byte> bytes,
               const std::string& path);
/// fsync(fd), retrying EINTR. Throws CheckError on failure.
void fsync_fd(int fd, const std::string& path);

/// Writes `chunks` to `path`.tmp, fsyncs and closes it, calls
/// `before_rename` (a crash point, say), renames the temp file over `path`
/// and fsyncs the directory holding `path`. A crash or power loss at any
/// point leaves either the old file or the new one. Throws CheckError.
void publish_file(const std::string& path,
                  std::initializer_list<std::span<const std::byte>> chunks,
                  const std::function<void()>& before_rename = nullptr);

}  // namespace lmo::util
