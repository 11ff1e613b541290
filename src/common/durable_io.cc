#include "common/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace collie::durable_io {
namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

std::string errno_string(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

// Directory containing `path` ("." when the path has no slash), so the
// rename itself can be made durable with a directory fsync.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool fail(std::string* error, std::string message, const std::string& tmp) {
  if (!tmp.empty()) ::unlink(tmp.c_str());
  if (error) *error = std::move(message);
  return false;
}

}  // namespace

u32 crc32(const void* data, std::size_t n, u32 seed) {
  static const std::array<u32, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool atomic_write(const std::string& path, const std::string& content,
                  std::string* error) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(error, errno_string("cannot create", tmp), "");

  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string msg = errno_string("write failed for", tmp);
      ::close(fd);
      return fail(error, msg, tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string msg = errno_string("fsync failed for", tmp);
    ::close(fd);
    return fail(error, msg, tmp);
  }
  if (::close(fd) != 0) {
    return fail(error, errno_string("close failed for", tmp), tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(error, errno_string("rename failed onto", path), tmp);
  }
  // Persist the rename itself.  Failure here is not fatal to correctness of
  // the content (the file is complete either way), so only report it.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      errno = err;
      return false;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  *out = std::move(data);
  return true;
}

}  // namespace collie::durable_io
