// Thin RAII wrappers over the POSIX socket API.
//
// This directory is the only place in the tree allowed to touch raw socket
// syscalls — the fairsfe-analyze rule `raw-socket-access` confines
// socket()/bind()/listen()/accept()/connect() and the <sys/socket.h> family
// of includes to src/net/. Everything above (the fairbenchd service, its
// tests and perfbench's client) speaks through these wrappers, so auditing
// the process's network surface means auditing src/net/socket.cpp.
//
// Determinism contract: wrappers never consult ambient randomness or
// clocks; the only timeouts are the poll() bound of Stream::readable_for and
// the kernel's kSendTimeout on accepted streams — values that never feed
// protocol state.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "crypto/bytes.h"

namespace fairsfe::net {

/// How long a send on an accepted stream may make no progress before
/// Stream::write_all fails (SO_SNDTIMEO). A peer that stops reading fills
/// its socket buffer; this bounds how long a server thread waits on it.
inline constexpr std::chrono::seconds kSendTimeout(2);

/// Owning file descriptor. Closes on destruction; moveable, not copyable.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&&) = delete;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Connected byte stream (TCP or unix-domain) with blocking I/O. Closes on
/// destruction.
class Stream {
 public:
  explicit Stream(Fd fd) : fd_(std::move(fd)) {}

  /// Write the whole buffer; short writes are looped. Throws
  /// std::runtime_error on error, EPIPE, or (on an accepted stream) a send
  /// that made no progress for kSendTimeout.
  void write_all(ByteView data);

  /// Read up to `out.size()` bytes; returns the count, 0 on EOF.
  std::size_t read_some(std::span<std::uint8_t> out);

  /// True once the stream is readable (data or EOF) within the timeout.
  bool readable_for(std::chrono::milliseconds timeout);

  [[nodiscard]] int native_handle() const { return fd_.get(); }

 private:
  Fd fd_;
};

/// Listening socket: TCP at `host:port` (port 0 picks an ephemeral port,
/// readable via port()) or unix-domain at a filesystem path. A unix path is
/// unlinked before bind (stale socket files from a crashed daemon) and on
/// destruction. The listening fd is non-blocking, so accept() never waits;
/// poll native_handle() for readiness.
class Listener {
 public:
  static Listener bind_tcp(const std::string& host, std::uint16_t port);
  static Listener bind_unix(const std::string& path);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound TCP port; 0 for a unix listener.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// The socket file of a unix listener; empty for TCP.
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int native_handle() const { return fd_.get(); }

  /// Accept one pending connection without blocking. std::nullopt when none
  /// can be taken now: none is pending, the pending one was aborted, or the
  /// process is out of fds or buffers (EMFILE, ENFILE, ENOBUFS, ENOMEM).
  /// Throws only on a misuse of the listening fd. The accepted stream is
  /// blocking (Linux accept does not inherit O_NONBLOCK), its sends time out
  /// after kSendTimeout, and a TCP stream has TCP_NODELAY set.
  std::optional<Stream> accept();

 private:
  Listener(Fd fd, std::uint16_t port, std::string path)
      : fd_(std::move(fd)), port_(port), path_(std::move(path)) {}

  Fd fd_;
  std::uint16_t port_ = 0;
  std::string path_;
};

/// Connect to a TCP endpoint. Throws std::runtime_error on failure.
Stream tcp_connect(const std::string& host, std::uint16_t port);

/// Connect to a unix-domain socket path. Throws on failure.
Stream unix_connect(const std::string& path);

}  // namespace fairsfe::net
