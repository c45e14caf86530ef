#include "hongtu/common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hongtu {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// Opens `path` (a file or a directory) read-only and fsyncs it.
Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("fsync open", path);
  const Status st = FsyncFd(fd);
  ::close(fd);
  return st;
}

/// The directory part of `path` ("." when it has none).
std::string DirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("'" + path + "' not found");
    return Errno("open", path);
  }
  std::string out;
  const Status st = [&]() -> Status {
    // Sized by fstat, not by seeking: ftell on a directory stream reports
    // LLONG_MAX on some filesystems.
    struct stat sb;
    if (::fstat(fd, &sb) != 0) return Errno("stat", path);
    if (!S_ISREG(sb.st_mode)) {
      return Status::IoError("'" + path + "' is not a regular file");
    }
    out.resize(static_cast<size_t>(sb.st_size));
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t r = ::read(fd, &out[off], out.size() - off);
      if (r < 0) {
        if (errno == EINTR) continue;
        return Errno("read", path);
      }
      if (r == 0) return Status::IoError("'" + path + "': short read");
      off += static_cast<size_t>(r);
    }
    return Status::OK();
  }();
  ::close(fd);
  if (!st.ok()) return st;
  return out;
}

Status WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("write: ") + std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FsyncFd(int fd) {
  if (::fsync(fd) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status ReplaceFile(const std::string& path,
                   const std::function<Status(int fd)>& write) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return Errno("open", tmp);
  Status st = write(fd);
  if (st.ok()) st = FsyncFd(fd);
  ::close(fd);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Errno("rename to", path);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  // The rename must itself be durable before the new file counts.
  return FsyncPath(DirOf(path));
}

}  // namespace hongtu
