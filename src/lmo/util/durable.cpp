#include "lmo/util/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "lmo/util/check.hpp"

namespace lmo::util {
namespace {

/// fsync(fd) with EINTR retried; returns 0 or the failing errno.
int sync_errno(int fd) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) return errno;
  }
  return 0;
}

}  // namespace

void write_all(int fd, std::span<const std::byte> bytes,
               const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    LMO_CHECK_MSG(n > 0, "write(" + path + ") failed: " +
                             std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& path) {
  const int err = sync_errno(fd);
  LMO_CHECK_MSG(err == 0,
                "fsync(" + path + ") failed: " + std::strerror(err));
}

void publish_file(const std::string& path,
                  std::initializer_list<std::span<const std::byte>> chunks,
                  const std::function<void()>& before_rename) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  LMO_CHECK_MSG(fd >= 0,
                "cannot open " + tmp + " for writing: " + std::strerror(errno));
  try {
    for (const auto chunk : chunks) write_all(fd, chunk, tmp);
    fsync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  LMO_CHECK_MSG(::close(fd) == 0,
                "close(" + tmp + ") failed: " + std::strerror(errno));
  if (before_rename) before_rename();
  LMO_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                "rename " + tmp + " -> " + path + " failed: " +
                    std::strerror(errno));

  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0             ? "/"
                                                   : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  LMO_CHECK_MSG(dir_fd >= 0,
                "cannot open directory " + dir + ": " + std::strerror(errno));
  const int err = sync_errno(dir_fd);
  ::close(dir_fd);
  // EINVAL: the file system cannot sync directories; nothing more to do.
  LMO_CHECK_MSG(err == 0 || err == EINVAL, "fsync of directory " + dir +
                                               " failed: " +
                                               std::strerror(err));
}

}  // namespace lmo::util
