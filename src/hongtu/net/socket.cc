#include "hongtu/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "hongtu/common/fault.h"
#include "hongtu/net/frame.h"

namespace hongtu {
namespace net {

namespace {

Status SetBlocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IoError(std::string("fcntl(F_GETFL): ") +
                           std::strerror(errno));
  }
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) {
    return Status::IoError(std::string("fcntl(F_SETFL): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void TuneStream(int fd, bool uds) {
  if (!uds) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
#ifdef SO_NOSIGPIPE
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#endif
}

Result<struct sockaddr_in> TcpSockaddr(const Addr& a) {
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(a.port));
  if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
    return Status::Invalid("tcp address host must be a dotted IPv4 literal: " +
                           a.host);
  }
  return sa;
}

Result<struct sockaddr_un> UdsSockaddr(const Addr& a) {
  struct sockaddr_un sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  if (a.path.size() + 1 > sizeof(sa.sun_path)) {
    return Status::Invalid("uds path too long (" +
                           std::to_string(a.path.size()) + " > " +
                           std::to_string(sizeof(sa.sun_path) - 1) +
                           "): " + a.path);
  }
  std::memcpy(sa.sun_path, a.path.c_str(), a.path.size() + 1);
  return sa;
}

}  // namespace

Result<Addr> ParseAddr(const std::string& addr) {
  Addr a;
  if (addr.rfind("uds:", 0) == 0) {
    a.uds = true;
    a.path = addr.substr(4);
    if (a.path.empty()) return Status::Invalid("empty uds path: " + addr);
    return a;
  }
  if (addr.rfind("tcp:", 0) == 0) {
    const std::string rest = addr.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
      return Status::Invalid("tcp address needs tcp:host:port: " + addr);
    }
    a.host = rest.substr(0, colon);
    char* end = nullptr;
    const long port = std::strtol(rest.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      return Status::Invalid("bad tcp port in: " + addr);
    }
    a.port = static_cast<int>(port);
    return a;
  }
  return Status::Invalid("address must start with tcp: or uds: — " + addr);
}

Result<int> ListenOn(const std::string& addr, std::string* bound_addr) {
  HT_ASSIGN_OR_RETURN(Addr a, ParseAddr(addr));
  const int fd = ::socket(a.uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  Status st = Status::OK();
  if (a.uds) {
    ::unlink(a.path.c_str());
    auto sar = UdsSockaddr(a);
    if (!sar.ok()) {
      ::close(fd);
      return sar.status();
    }
    const struct sockaddr_un sa = sar.ValueOrDie();
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&sa),
               sizeof(sa)) < 0) {
      st = Status::IoError("bind(" + a.path + "): " + std::strerror(errno));
    }
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    auto sar = TcpSockaddr(a);
    if (!sar.ok()) {
      ::close(fd);
      return sar.status();
    }
    struct sockaddr_in sa = sar.ValueOrDie();
    if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&sa),
               sizeof(sa)) < 0) {
      st = Status::IoError("bind(" + a.host + ":" + std::to_string(a.port) +
                           "): " + std::strerror(errno));
    }
  }
  if (st.ok() && ::listen(fd, 64) < 0) {
    st = Status::IoError(std::string("listen(): ") + std::strerror(errno));
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  if (bound_addr != nullptr) {
    if (a.uds) {
      *bound_addr = "uds:" + a.path;
    } else {
      struct sockaddr_in sa;
      socklen_t len = sizeof(sa);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&sa), &len) <
          0) {
        ::close(fd);
        return Status::IoError(std::string("getsockname(): ") +
                               std::strerror(errno));
      }
      *bound_addr = "tcp:" + a.host + ":" + std::to_string(ntohs(sa.sin_port));
    }
  }
  return fd;
}

Result<int> ConnectTo(const std::string& addr, double deadline_s) {
  HT_ASSIGN_OR_RETURN(Addr a, ParseAddr(addr));
  const int fd = ::socket(a.uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  auto fail = [&](Status st) -> Result<int> {
    ::close(fd);
    return st;
  };
  {
    const Status st = SetBlocking(fd, false);
    if (!st.ok()) return fail(st);
  }
  int rc;
  if (a.uds) {
    auto sar = UdsSockaddr(a);
    if (!sar.ok()) return fail(sar.status());
    const struct sockaddr_un sa = sar.ValueOrDie();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&sa),
                   sizeof(sa));
  } else {
    auto sar = TcpSockaddr(a);
    if (!sar.ok()) return fail(sar.status());
    struct sockaddr_in sa = sar.ValueOrDie();
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&sa),
                   sizeof(sa));
  }
  if (rc < 0 && errno != EINPROGRESS && errno != EAGAIN) {
    // ECONNREFUSED / ENOENT (uds not yet bound) are the "peer not up yet"
    // family — retryable by construction.
    return fail(Status::Unavailable("connect(" + addr +
                                    "): " + std::strerror(errno)));
  }
  if (rc < 0) {
    const double deadline_abs =
        deadline_s < 0 ? -1.0 : MonotonicSeconds() + deadline_s;
    for (;;) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      int timeout_ms = -1;
      if (deadline_abs >= 0) {
        const double left = deadline_abs - MonotonicSeconds();
        if (left <= 0) {
          return fail(
              Status::Unavailable("connect(" + addr + "): deadline expired"));
        }
        timeout_ms = static_cast<int>(left * 1e3) + 1;
      }
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return fail(Status::IoError(std::string("poll(connect): ") +
                                    std::strerror(errno)));
      }
      if (pr == 0) {
        return fail(
            Status::Unavailable("connect(" + addr + "): deadline expired"));
      }
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return fail(Status::Unavailable(
          "connect(" + addr +
          "): " + std::strerror(err != 0 ? err : errno)));
    }
  }
  {
    const Status st = SetBlocking(fd, true);
    if (!st.ok()) return fail(st);
  }
  TuneStream(fd, a.uds);
  return fd;
}

Result<int> AcceptOn(int listen_fd, double deadline_s) {
  const double deadline_abs =
      deadline_s < 0 ? -1.0 : MonotonicSeconds() + deadline_s;
  for (;;) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int timeout_ms = -1;
    if (deadline_abs >= 0) {
      const double left = deadline_abs - MonotonicSeconds();
      if (left <= 0) return Status::Unavailable("accept deadline expired");
      timeout_ms = static_cast<int>(left * 1e3) + 1;
    }
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll(accept): ") +
                             std::strerror(errno));
    }
    if (pr == 0) return Status::Unavailable("accept deadline expired");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return Status::IoError(std::string("accept(): ") +
                             std::strerror(errno));
    }
    switch (fault::Check(fault::Site::kNetAccept)) {
      case fault::Kind::kNone:
      case fault::Kind::kKill:
      case fault::Kind::kCorrupt:  // no payload to corrupt here
        break;
      case fault::Kind::kDelay:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fault::kDelayStallSeconds));
        break;
      case fault::Kind::kTransient:
      case fault::Kind::kDrop:
      case fault::Kind::kDisconnect:
        // Refuse this connection: the peer sees EOF and its reconnect
        // loop takes over.
        ::close(fd);
        continue;
      case fault::Kind::kPermanent:
        ::close(fd);
        return Status::Internal("injected permanent fault at net.accept");
    }
    TuneStream(fd, /*uds=*/false);  // TCP_NODELAY no-ops on uds sockets
    return fd;
  }
}

}  // namespace net
}  // namespace hongtu
