// Raw-socket audit (enforced by fairsfe-analyze rule `raw-socket-access`):
// this translation unit is the complete list of raw socket call sites in the
// repository. Everything else goes through the wrappers it defines.
//
//   socket()   — make_socket() (Listener::bind_tcp/bind_unix, *_connect)
//   bind()     — Listener::bind_tcp(), Listener::bind_unix()
//   listen()   — Listener::bind_tcp(), Listener::bind_unix()
//   accept()   — Listener::accept()
//   connect()  — tcp_connect(), unix_connect()
//
// Anything outside src/net/ that needs a socket takes a net::Stream /
// net::Listener; the lint rule fails the build otherwise.

#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace fairsfe::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// A new stream socket of `domain`; `flags` ORs into the type (the
/// listeners pass SOCK_NONBLOCK).
Fd make_socket(int domain, int flags = 0) {
  const int fd = ::socket(domain, SOCK_STREAM | flags, 0);
  if (fd < 0) throw_errno(domain == AF_UNIX ? "socket(AF_UNIX)" : "socket(AF_INET)");
  return Fd(fd);
}

sockaddr_in tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  // Not a dotted quad: resolve it (fairbenchd --host takes a hostname).
  // IPv4 only — the daemon binds AF_INET listeners.
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw std::runtime_error("getaddrinfo('" + host +
                             "'): " + ::gai_strerror(rc));
  }
  addr.sin_addr = reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void set_nodelay(int fd) {
  // Round-trip latency dominates the lockstep round barrier; never batch.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Fd::~Fd() {
  if (fd_ >= 0) ::close(fd_);
}

void Stream::write_all(ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");  // EAGAIN here is a kSendTimeout expiry
    }
    off += static_cast<std::size_t>(n);
  }
}

std::size_t Stream::read_some(std::span<std::uint8_t> out) {
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw_errno("recv");
  }
}

bool Stream::readable_for(std::chrono::milliseconds timeout) {
  pollfd pfd{fd_.get(), POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw_errno("poll(stream)");
  }
}

Listener Listener::bind_tcp(const std::string& host, std::uint16_t port) {
  Fd fd = make_socket(AF_INET, SOCK_NONBLOCK);
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = tcp_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), 64) != 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return Listener(std::move(fd), ntohs(addr.sin_port), "");
}

Listener Listener::bind_unix(const std::string& path) {
  Fd fd = make_socket(AF_UNIX, SOCK_NONBLOCK);
  (void)::unlink(path.c_str());  // stale socket file from a crashed daemon
  sockaddr_un addr = unix_addr(path);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd.get(), 64) != 0) throw_errno("listen");
  return Listener(std::move(fd), 0, path);
}

Listener::~Listener() {
  if (!path_.empty()) (void)::unlink(path_.c_str());
}

std::optional<Stream> Listener::accept() {
  int fd;
  while ((fd = ::accept(fd_.get(), nullptr, nullptr)) < 0) {
    switch (errno) {
      case EINTR:
        continue;
      case EBADF:
      case EFAULT:
      case EINVAL:
      case ENOTSOCK:
        throw_errno("accept");
      default:  // nothing pending, an aborted peer, or out of fds/buffers
        return std::nullopt;
    }
  }
  const timeval send_timeout{kSendTimeout.count(), 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
  if (path_.empty()) set_nodelay(fd);
  return Stream(Fd(fd));
}

Stream tcp_connect(const std::string& host, std::uint16_t port) {
  Fd fd = make_socket(AF_INET);
  sockaddr_in addr = tcp_addr(host, port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  set_nodelay(fd.get());
  return Stream(std::move(fd));
}

Stream unix_connect(const std::string& path) {
  Fd fd = make_socket(AF_UNIX);
  sockaddr_un addr = unix_addr(path);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return Stream(std::move(fd));
    }
    if (errno == EINTR) continue;
    throw_errno("connect(" + path + ")");
  }
}

}  // namespace fairsfe::net
