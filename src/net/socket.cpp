// Raw-socket audit (enforced by fairsfe-analyze rule `raw-socket-access`):
// this translation unit is the complete list of raw socket call sites in the
// repository. Everything else goes through the wrappers it defines.
//
//   socket()   — make_tcp_socket(), make_unix_socket()
//   bind()     — TcpListener::bind(), UnixListener::bind()
//   listen()   — TcpListener::bind(), UnixListener::bind()
//   accept()   — accept_fd() (serving TcpListener/UnixListener::accept[_for])
//   connect()  — tcp_connect(), unix_connect()
//
// Anything outside src/net/ that needs a socket takes a net::Stream /
// net::*Listener; the lint rule fails the build otherwise.

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

Fd make_tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  return Fd(fd);
}

Fd make_unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
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

/// Shared accept body for both listener flavors. A timeout of -1 blocks.
std::optional<Stream> accept_fd(int listen_fd, int timeout_ms) {
  if (timeout_ms >= 0) {
    pollfd pfd{listen_fd, POLLIN, 0};
    for (;;) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 0) return std::nullopt;
      if (rc > 0) break;
      if (errno == EINTR) continue;
      throw_errno("poll(listener)");
    }
  }
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return Stream(Fd(fd));
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

void set_nodelay(int fd) {
  // Round-trip latency dominates the lockstep round barrier; never batch.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Stream::write_all(ByteView data) {
  if (!fd_.valid()) throw std::runtime_error("write on closed stream");
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

bool Stream::read_exact(std::span<std::uint8_t> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::recv(fd_.get(), out.data() + off, out.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (off == 0) return false;  // clean EOF at a frame boundary
      throw std::runtime_error("recv: EOF mid-frame after " +
                               std::to_string(off) + " bytes");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
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

void Stream::shutdown_write() {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_WR);
}

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port) {
  TcpListener l;
  l.fd_ = make_tcp_socket();
  const int one = 1;
  (void)::setsockopt(l.fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = tcp_addr(host, port);
  if (::bind(l.fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(l.fd_.get(), 64) != 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(l.fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Stream TcpListener::accept() {
  auto s = accept_fd(fd_.get(), -1);
  set_nodelay(s->native_handle());
  return std::move(*s);
}

std::optional<Stream> TcpListener::accept_for(std::chrono::milliseconds timeout) {
  auto s = accept_fd(fd_.get(), static_cast<int>(timeout.count()));
  if (s) set_nodelay(s->native_handle());
  return s;
}

UnixListener::~UnixListener() {
  if (!path_.empty()) (void)::unlink(path_.c_str());
}

UnixListener::UnixListener(UnixListener&& o) noexcept
    : fd_(std::move(o.fd_)), path_(std::move(o.path_)) {
  o.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& o) noexcept {
  if (this != &o) {
    if (!path_.empty()) (void)::unlink(path_.c_str());
    fd_ = std::move(o.fd_);
    path_ = std::move(o.path_);
    o.path_.clear();
  }
  return *this;
}

UnixListener UnixListener::bind(const std::string& path) {
  UnixListener l;
  l.fd_ = make_unix_socket();
  (void)::unlink(path.c_str());  // stale socket file from a crashed daemon
  sockaddr_un addr = unix_addr(path);
  if (::bind(l.fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(l.fd_.get(), 64) != 0) throw_errno("listen");
  l.path_ = path;
  return l;
}

Stream UnixListener::accept() { return std::move(*accept_fd(fd_.get(), -1)); }

std::optional<Stream> UnixListener::accept_for(std::chrono::milliseconds timeout) {
  return accept_fd(fd_.get(), static_cast<int>(timeout.count()));
}

Stream tcp_connect(const std::string& host, std::uint16_t port) {
  Fd fd = make_tcp_socket();
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
  Fd fd = make_unix_socket();
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
