#include "service/daemon.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "service/json.h"
#include "service/runner.h"
#include "service/signals.h"
#include "util/bitmat.h"

namespace fairsfe::service {

namespace {

constexpr std::chrono::milliseconds kPollInterval(200);

ByteView line_bytes(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string quoted(const std::string& s) {
  const std::string escaped = json_escape(s);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.append(1, '"').append(escaped).append(1, '"');
  return out;
}

std::string error_event(const std::string& id, const std::string& message) {
  return "{\"event\":\"error\",\"id\":" + quoted(id) +
         ",\"message\":" + quoted(message) + "}";
}

/// Reporter::json_object() is pretty-printed; NDJSON framing needs one line.
/// JSON whitespace outside strings is insignificant and the reporter never
/// emits a raw newline inside a string (json_escape turns them into \n), so
/// dropping every '\n' yields an equivalent single-line document.
std::string one_line(std::string json) {
  json.erase(std::remove(json.begin(), json.end(), '\n'), json.end());
  return json;
}

}  // namespace

/// Per-connection state, shared between the reader thread and in-flight
/// estimate jobs on the worker pool (shared_ptr keeps it alive until both
/// sides are done with it).
struct Daemon::Conn {
  explicit Conn(net::Stream s) : stream(std::move(s)) {}

  net::Stream stream;
  std::mutex write_mu;  ///< serializes response lines
  bool dead = false;    ///< a write failed (peer gone); drop further events

  std::mutex mu;  ///< guards pending; cv signals drain
  std::condition_variable cv;
  int pending = 0;  ///< estimate jobs submitted but not yet answered

  /// Emit one response event line. Thread-safe; swallows write errors (a
  /// vanished client must not take a worker down mid-estimate).
  void write_event(std::string line) {
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead) return;
    try {
      stream.write_all(line_bytes(line));
    } catch (const std::exception&) {
      dead = true;
    }
  }
};

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)), pool_(util::ThreadPool::resolve(cfg_.workers)) {
  if (!cfg_.unix_path.empty()) {
    unix_listener_ = net::UnixListener::bind(cfg_.unix_path);
  } else {
    tcp_listener_ = net::TcpListener::bind(cfg_.tcp_host, cfg_.tcp_port);
  }
}

Daemon::~Daemon() {
  stop();
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
}

std::uint16_t Daemon::tcp_port() const {
  return tcp_listener_ ? tcp_listener_->port() : 0;
}

bool Daemon::stopping() const {
  return stop_.load(std::memory_order_relaxed) || stop_requested();
}

void Daemon::log(const char* fmt, ...) const {
  if (cfg_.quiet) return;
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fflush(stdout);
}

void Daemon::serve() {
  if (unix_listener_) {
    log("fairbenchd: listening on unix:%s (%zu workers)\n",
        unix_listener_->path().c_str(), pool_.size());
  } else {
    log("fairbenchd: listening on %s:%u (%zu workers)\n",
        cfg_.tcp_host.c_str(), static_cast<unsigned>(tcp_listener_->port()),
        pool_.size());
  }
  while (!stopping()) {
    std::optional<net::Stream> s =
        unix_listener_ ? unix_listener_->accept_for(kPollInterval)
                       : tcp_listener_->accept_for(kPollInterval);
    if (!s) continue;
    auto conn = std::make_shared<Conn>(std::move(*s));
    connections_.fetch_add(1, std::memory_order_relaxed);
    conn_threads_.emplace_back(
        [this, conn]() mutable { handle_connection(std::move(conn)); });
  }
  // Graceful drain: stop accepting, let in-flight estimates finish and be
  // answered, then close every connection. Order matters — readers wait on
  // their own pending count, so wait_idle() first is not required, but it
  // bounds the join below by "all work done".
  pool_.wait_idle();
  for (std::thread& t : conn_threads_) t.join();
  conn_threads_.clear();
  log("fairbenchd: drained, served %llu request(s)\n",
      static_cast<unsigned long long>(served()));
}

void Daemon::handle_connection(std::shared_ptr<Conn> conn) {
  std::string linebuf;
  std::array<std::uint8_t, 4096> chunk;
  for (;;) {
    if (stopping()) break;
    bool readable = false;
    try {
      readable = conn->stream.readable_for(kPollInterval);
    } catch (const std::exception&) {
      break;
    }
    if (!readable) continue;
    std::size_t n = 0;
    try {
      n = conn->stream.read_some(chunk);
    } catch (const std::exception&) {
      break;
    }
    if (n == 0) break;  // client EOF
    linebuf.append(reinterpret_cast<const char*>(chunk.data()), n);
    std::size_t nl;
    while ((nl = linebuf.find('\n')) != std::string::npos && nl <= kMaxRequestLine) {
      std::string line = linebuf.substr(0, nl);
      linebuf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      dispatch(line, conn);
    }
    if (linebuf.size() > kMaxRequestLine) {
      conn->write_event(error_event(
          "", "request line longer than " + std::to_string(kMaxRequestLine) +
                  " bytes; closing the connection"));
      break;
    }
  }
  // Never close under a client's feet: answers for requests already accepted
  // are flushed before the FIN.
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->cv.wait(lock, [&conn] { return conn->pending == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->stream.close();
  }
  connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Daemon::dispatch(const std::string& line,
                      const std::shared_ptr<Conn>& conn) {
  const std::optional<JsonValue> req = json_parse(line);
  if (!req || !req->is_object()) {
    conn->write_event(error_event("", "malformed request: not a JSON object"));
    return;
  }
  const std::string id = req->get_string("id");
  const std::string verb = req->get_string("verb");
  if (verb == "estimate") {
    handle_estimate(*req, conn);
  } else if (verb == "list") {
    std::string out = "{\"event\":\"scenarios\",\"ids\":[";
    bool first = true;
    std::size_t count = 0;
    for (const experiments::ScenarioSpec* spec :
         experiments::Registry::instance().all()) {
      if (!first) out += ",";
      first = false;
      out += quoted(spec->id);
      ++count;
    }
    out += "],\"count\":" + std::to_string(count) + "}";
    conn->write_event(std::move(out));
  } else if (verb == "status") {
    conn->write_event(
        "{\"event\":\"status\",\"active\":" +
        std::to_string(active_.load(std::memory_order_relaxed)) +
        ",\"served\":" + std::to_string(served()) +
        ",\"workers\":" + std::to_string(pool_.size()) + ",\"connections\":" +
        std::to_string(connections_.load(std::memory_order_relaxed)) + "}");
  } else if (verb == "shutdown") {
    conn->write_event("{\"event\":\"bye\",\"served\":" +
                      std::to_string(served()) + "}");
    log("fairbenchd: shutdown requested\n");
    stop();
  } else {
    conn->write_event(error_event(
        id, "unknown verb '" + verb +
                "' (expected estimate|list|status|shutdown)"));
  }
}

void Daemon::handle_estimate(const JsonValue& req,
                             const std::shared_ptr<Conn>& conn) {
  const std::string id = req.get_string("id");
  const auto reject = [&conn, &id](const std::string& message) {
    conn->write_event(error_event(id, message));
  };
  const std::string scenario = req.get_string("scenario");
  const experiments::ScenarioSpec* spec =
      experiments::Registry::instance().find(scenario);
  if (spec == nullptr) {
    return reject("unknown scenario '" + scenario + "' (send {\"verb\":\"list\"})");
  }

  // Field-for-flag mirror of the fairbench CLI; every default and bound
  // matches bench::parse_args so daemon answers equal one-shot answers.
  // An integer field: `def` when absent, nullopt unless a whole number in
  // [0, 2^64).
  const auto uint_field = [&req](std::string_view key, std::uint64_t def) {
    const JsonValue* v = req.find(key);
    return v == nullptr ? std::optional<std::uint64_t>(def) : v->as_u64();
  };
  bench::Args args;
  args.quiet = true;
  if (req.find("runs") != nullptr) {
    const auto runs = uint_field("runs", 0);
    if (!runs || *runs == 0 || *runs > rpd::kMaxRuns) {
      return reject("\"runs\" must be a positive integer no larger than " +
                    std::to_string(rpd::kMaxRuns));
    }
    args.runs = static_cast<std::size_t>(*runs);
    args.runs_set = true;
  }
  if (req.find("seed") != nullptr) {
    args.seed = uint_field("seed", 0);
    if (!args.seed) return reject("\"seed\" must be an integer in [0, 2^64)");
  }
  const auto threads = uint_field("threads", 1);
  if (!threads || *threads > rpd::kMaxThreads) {
    return reject("\"threads\" must be an integer in [0, " +
                  std::to_string(rpd::kMaxThreads) + "]");
  }
  args.threads = static_cast<std::size_t>(*threads);
  const auto lanes = uint_field("lanes", 1);
  if (!lanes || !rpd::valid_lanes(static_cast<std::size_t>(*lanes))) {
    return reject("\"lanes\" must be 1 or " + std::to_string(util::kLaneWidth));
  }
  args.lanes = static_cast<std::size_t>(*lanes);
  // A field present with the wrong JSON type is rejected like a bad value,
  // never read as absent.
  if (const JsonValue* v = req.find("target_ci"); v != nullptr) {
    if (v->type() != JsonValue::Type::kNumber || !(v->as_number() >= 0.0) ||
        !std::isfinite(v->as_number())) {
      return reject("\"target_ci\" must be a non-negative number (0 = off)");
    }
    args.target_ci = v->as_number();
  }
  const JsonValue* preproc = req.find("preproc");
  if (preproc != nullptr) {
    const auto mode = preproc->type() == JsonValue::Type::kString
                          ? mpc::preproc::parse_preproc_mode(preproc->as_string())
                          : std::nullopt;
    if (!mode) {
      return reject("\"preproc\" must be one of inline|offline_ideal|offline_ot");
    }
    args.preproc = *mode;
  }

  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->pending;
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  log("fairbenchd: estimate %s (id=%s)\n", spec->id.c_str(), id.c_str());
  pool_.submit([this, conn, id, spec, args] {
    try {
      const RowSink sink = [&conn, &id, &spec](std::size_t row,
                                               const std::string& name) {
        conn->write_event("{\"event\":\"progress\",\"id\":" + quoted(id) +
                          ",\"scenario\":" + quoted(spec->id) +
                          ",\"row\":" + std::to_string(row) +
                          ",\"name\":" + quoted(name) + "}");
      };
      const ScenarioRunResult res =
          run_scenario(*spec, args, sink, /*cache_batches=*/true);
      // Counters first so a status request issued after reading this result
      // already observes it as served.
      active_.fetch_sub(1, std::memory_order_relaxed);
      served_.fetch_add(1, std::memory_order_relaxed);
      conn->write_event("{\"event\":\"result\",\"id\":" + quoted(id) +
                        ",\"scenario\":" + quoted(spec->id) +
                        ",\"deviations\":" + std::to_string(res.deviations) +
                        ",\"report\":" + one_line(res.json) + "}");
    } catch (const std::exception& e) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      served_.fetch_add(1, std::memory_order_relaxed);
      conn->write_event(
          error_event(id, std::string("estimate failed: ") + e.what()));
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->pending;
    }
    conn->cv.notify_all();
  });
}

}  // namespace fairsfe::service
