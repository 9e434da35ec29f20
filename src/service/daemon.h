// fairbenchd: the batching estimation daemon (ISSUE 8 tentpole, layer 2).
//
// One long-lived process owns the expensive shared state — the compiled
// circuit-plan cache, the scenario registry, the cross-request offline-batch
// cache (service/runner.h) and a persistent util::ThreadPool — and serves
// estimation requests over a unix-domain or TCP socket so repeated
// benchmarking (CI sweeps, parameter searches, scripts/loadtest.py) pays the
// process-startup and cache-warmup cost once instead of per invocation.
//
// Protocol: newline-delimited JSON (NDJSON). One request object per line;
// every response event is one line. Requests:
//
//   {"verb": "estimate", "scenario": "exp05_nparty_bounds",
//    "runs": 400, "seed": 7, "threads": 2, "preproc": "offline_ideal",
//    "lanes": 1, "target_ci": 0.0, "id": "r1"}
//   {"verb": "list"}
//   {"verb": "status"}
//   {"verb": "shutdown"}
//
// Every estimate field except "scenario" is optional and defaults exactly
// like the fairbench CLI flag of the same name (absent "runs" = the spec's
// default_runs, absent "seed" = the scenario's hard-coded per-point seeds).
// "id" is an opaque client token echoed on every response event for that
// request, so one connection can pipeline requests. Unknown keys are
// ignored. An invalid field (runs 0, lanes other than 1 or 64, an unknown
// preproc) gets an "error" event; the connection stays open. A request line
// longer than kMaxRequestLine bytes gets one "error" event, and the daemon
// then closes that connection (other connections are unaffected).
//
// Response events (all single-line JSON objects with an "event" key):
//
//   {"event":"progress","id":...,"scenario":...,"row":N,"name":"..."}
//   {"event":"result","id":...,"scenario":...,"deviations":D,"report":{...}}
//   {"event":"error","id":...,"message":"..."}
//   {"event":"scenarios","count":N,"ids":["exp01_...", ...]}
//   {"event":"status","active":A,"served":S,"workers":W,"connections":C}
//   {"event":"bye","served":S}
//
// The "report" value is byte-for-byte the object a one-shot
// `fairbench --filter <scenario> ...` writes with --json, minus newlines
// (NDJSON framing requires one line; JSON whitespace outside strings is
// insignificant, and Reporter::json_object never emits raw newlines inside
// strings). tests/test_service.cpp pins daemon == one-shot bit-identity.
//
// Concurrency model: one reader thread per connection parses lines and
// answers list/status/shutdown inline; estimate requests are submitted to the
// shared worker pool, so concurrent requests from one or many connections
// shard across it. Responses for a connection are serialized by a
// per-connection write mutex (progress events from a worker may interleave
// between — never inside — other events' lines). Determinism is unaffected:
// each estimate derives every bit from its request (scenario, seed, runs),
// never from arrival order or timing.
//
// Shutdown: stop() (or the "shutdown" verb, or SIGINT/SIGTERM via
// service::install_stop_handlers + serve()'s polling) stops accepting,
// drains in-flight estimates, answers them, closes connections, and returns
// from serve() — clients never see a half-written line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "util/thread_pool.h"

namespace fairsfe::service {

class JsonValue;

/// Longest request line the daemon buffers, in bytes; real requests are a
/// few hundred. A longer line is answered with one "error" event and its
/// connection is closed, so no client can grow the line buffer without bound.
inline constexpr std::size_t kMaxRequestLine = 64 * 1024;

struct DaemonConfig {
  /// Non-empty: listen on this unix-domain socket path (preferred for local
  /// use; the CI smoke stage uses it). Empty: listen on TCP.
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral, readable via tcp_port()
  /// Worker threads for estimate requests; 0 = one per hardware thread
  /// (util::ThreadPool::resolve). This bounds daemon-level request
  /// parallelism; each request's own EstimatorOptions::threads additionally
  /// shards its Monte-Carlo runs (nested pools are independent).
  std::size_t workers = 1;
  bool quiet = false;  ///< suppress the daemon's stdout log lines
};

class Daemon {
 public:
  /// Binds the listener (throws std::runtime_error on bind failure) and
  /// starts the worker pool. serve() must be called to accept connections.
  explicit Daemon(DaemonConfig cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Accept loop; returns after stop()/shutdown-verb/stop_requested() once
  /// every in-flight request is answered and every connection drained.
  void serve();

  /// Request a graceful stop (thread-safe; also callable from a test driver
  /// while serve() runs in another thread).
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// The bound TCP port (0 when listening on a unix socket).
  [[nodiscard]] std::uint16_t tcp_port() const;

  [[nodiscard]] std::uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void log(const char* fmt, ...) const;
  [[nodiscard]] bool stopping() const;
  void handle_connection(std::shared_ptr<Conn> conn);
  void dispatch(const std::string& line, const std::shared_ptr<Conn>& conn);
  void handle_estimate(const JsonValue& req, const std::shared_ptr<Conn>& conn);

  DaemonConfig cfg_;
  std::optional<net::UnixListener> unix_listener_;
  std::optional<net::TcpListener> tcp_listener_;
  util::ThreadPool pool_;
  std::atomic<bool> stop_{false};  ///< this daemon's own flag: a shutdown
                                   ///< verb must not poison other Daemon
                                   ///< instances via the global signal flag
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> active_{0};
  std::vector<std::thread> conn_threads_;
  std::atomic<std::uint64_t> connections_{0};
};

}  // namespace fairsfe::service
