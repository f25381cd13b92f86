#include "lmo/store/storage_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "lmo/util/check.hpp"
#include "lmo/util/durable.hpp"
#include "lmo/util/status.hpp"

namespace lmo::store {

StorageBackend::StorageBackend(std::uint64_t block_bytes)
    : block_bytes_(block_bytes) {
  LMO_CHECK_GT(block_bytes, 0u);
}

MemoryBackend::MemoryBackend(std::uint64_t block_bytes)
    : StorageBackend(block_bytes) {}

void MemoryBackend::write_block(std::uint64_t index,
                                std::span<const std::byte> block) {
  LMO_CHECK_EQ(block.size(), block_bytes_);
  std::lock_guard<std::mutex> lock(mutex_);
  blocks_[index].assign(block.begin(), block.end());
}

void MemoryBackend::read_block(std::uint64_t index,
                               std::span<std::byte> out) {
  LMO_CHECK_EQ(out.size(), block_bytes_);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blocks_.find(index);
  LMO_CHECK_MSG(it != blocks_.end(),
                "MemoryBackend: read of unwritten block " +
                    std::to_string(index));
  std::memcpy(out.data(), it->second.data(), out.size());
}

std::string MemoryBackend::describe() const { return "memory"; }

FileBackend::FileBackend(const std::string& path, std::uint64_t block_bytes,
                         OpenMode mode)
    : StorageBackend(block_bytes), path_(path) {
  const int flags =
      O_RDWR | O_CREAT | (mode == OpenMode::kTruncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  LMO_CHECK_MSG(fd_ >= 0, "FileBackend: cannot open " + path + ": " +
                              std::strerror(errno));
  if (mode == OpenMode::kPreserve) {
    struct stat st{};
    LMO_CHECK_MSG(::fstat(fd_, &st) == 0, "FileBackend: fstat(" + path +
                                              ") failed: " +
                                              std::strerror(errno));
    file_blocks_ = static_cast<std::uint64_t>(st.st_size) / block_bytes_;
  }
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

void FileBackend::ensure_capacity(std::uint64_t blocks) {
  std::lock_guard<std::mutex> lock(grow_mutex_);
  if (blocks <= file_blocks_) return;
  const auto bytes = static_cast<off_t>(blocks * block_bytes_);
  LMO_CHECK_MSG(::ftruncate(fd_, bytes) == 0,
                "FileBackend: ftruncate(" + path_ + ") failed: " +
                    std::strerror(errno));
  file_blocks_ = blocks;
}

void FileBackend::write_block(std::uint64_t index,
                              std::span<const std::byte> block) {
  LMO_CHECK_EQ(block.size(), block_bytes_);
  ensure_capacity(index + 1);
  const auto offset = static_cast<off_t>(index * block_bytes_);
  std::size_t done = 0;
  while (done < block.size()) {
    const ssize_t n = ::pwrite(fd_, block.data() + done, block.size() - done,
                               offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw util::StorageError("FileBackend: pwrite(" + path_ + ", block " +
                               std::to_string(index) + ") failed: " +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void FileBackend::read_block(std::uint64_t index, std::span<std::byte> out) {
  LMO_CHECK_EQ(out.size(), block_bytes_);
  const auto offset = static_cast<off_t>(index * block_bytes_);
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              offset + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw util::StorageError("FileBackend: pread(" + path_ + ", block " +
                               std::to_string(index) + ") failed: " +
                               (n == 0 ? "short file" : std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
}

void FileBackend::sync() { util::fsync_fd(fd_, path_); }

std::string FileBackend::describe() const { return "file:" + path_; }

}  // namespace lmo::store
