// Thin RAII wrappers over the POSIX socket API.
//
// This directory is the only place in the tree allowed to touch raw socket
// syscalls — the fairsfe-lint rule `raw-socket-access` confines
// socket()/bind()/listen()/accept()/connect() and the <sys/socket.h> family
// of includes to src/net/. Everything above (the fairbenchd service, the
// fairparty mesh runner) speaks through these wrappers, so auditing the
// process's network surface means auditing src/net/socket.cpp.
//
// Determinism contract: wrappers never consult ambient randomness or
// wall-clock time; the only clock used is std::chrono::steady_clock, and only
// for connect/accept timeouts — values that never feed protocol state.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "crypto/bytes.h"

namespace fairsfe::net {

/// Owning file descriptor. Closes on destruction; moveable, not copyable.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int get() const { return fd_; }
  void reset();

 private:
  int fd_ = -1;
};

/// Connected byte stream (TCP or unix-domain). Blocking I/O with whole-buffer
/// write/read helpers; short reads/writes are looped internally.
class Stream {
 public:
  Stream() = default;
  explicit Stream(Fd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] bool valid() const { return fd_.valid(); }

  /// Write the whole buffer. Throws std::runtime_error on error/EPIPE.
  void write_all(ByteView data);

  /// Read exactly `out.size()` bytes into `out`. Returns false on clean EOF
  /// at a message boundary (zero bytes read); throws on mid-buffer EOF or
  /// error.
  bool read_exact(std::span<std::uint8_t> out);

  /// Read up to `out.size()` bytes; returns the count, 0 on EOF.
  std::size_t read_some(std::span<std::uint8_t> out);

  /// True once the stream is readable (data or EOF) within the timeout.
  /// Lets read loops wake up periodically to observe shutdown flags.
  bool readable_for(std::chrono::milliseconds timeout);

  /// Half-close the write side (delivers EOF to the peer's reads).
  void shutdown_write();

  void close() { fd_.reset(); }
  [[nodiscard]] int native_handle() const { return fd_.get(); }

 private:
  Fd fd_;
};

/// Listening TCP socket. Binds to `host:port` (port 0 picks an ephemeral
/// port, readable via port()).
class TcpListener {
 public:
  TcpListener() = default;
  static TcpListener bind(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Block until a connection arrives.
  Stream accept();
  /// Accept with a poll timeout; std::nullopt on timeout. Used by accept
  /// loops that must wake up to observe shutdown flags.
  std::optional<Stream> accept_for(std::chrono::milliseconds timeout);

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Listening unix-domain socket at a filesystem path. The path is unlinked
/// before bind (stale socket files from a crashed daemon) and on destruction.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();
  UnixListener(UnixListener&&) noexcept;
  UnixListener& operator=(UnixListener&&) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  static UnixListener bind(const std::string& path);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  Stream accept();
  std::optional<Stream> accept_for(std::chrono::milliseconds timeout);

 private:
  Fd fd_;
  std::string path_;
};

/// Connect to a TCP endpoint. Throws std::runtime_error on failure.
Stream tcp_connect(const std::string& host, std::uint16_t port);

/// Connect to a unix-domain socket path. Throws on failure.
Stream unix_connect(const std::string& path);

/// Connect with bounded retry/backoff: up to `attempts` tries, sleeping
/// `backoff` (doubled each retry, capped at 32×) between failures. Returns
/// the stream plus how many retries were needed (0 = first try). Throws once
/// the budget is exhausted. This is the peer-startup race absorber for the
/// multi-process mesh: party i may connect before party j has bound its
/// listener.
struct ConnectResult {
  Stream stream;
  int retries = 0;
};
ConnectResult tcp_connect_retry(const std::string& host, std::uint16_t port,
                                int attempts = 40,
                                std::chrono::milliseconds backoff =
                                    std::chrono::milliseconds(25));

}  // namespace fairsfe::net
