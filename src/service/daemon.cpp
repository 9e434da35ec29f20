#include "service/daemon.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "service/json.h"
#include "service/runner.h"
#include "service/signals.h"

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

  /// Set as the reader's last act: its thread is done with the connection.
  std::atomic<bool> closed{false};

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
  for (Reader& r : readers_) {
    if (r.thread.joinable()) r.thread.join();
  }
}

std::size_t Daemon::reader_threads() const {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return readers_.size();
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
    // Every pass, accept or timeout, joins the readers of closed connections,
    // so a long-lived daemon holds one thread per open connection.
    std::lock_guard<std::mutex> lock(readers_mu_);
    std::erase_if(readers_, [](Reader& r) {
      if (!r.conn->closed.load(std::memory_order_acquire)) return false;
      r.thread.join();
      return true;
    });
    if (!s) continue;
    auto conn = std::make_shared<Conn>(std::move(*s));
    connections_.fetch_add(1, std::memory_order_relaxed);
    readers_.push_back(Reader{conn, std::thread([this, conn] { handle_connection(conn); })});
  }
  // Graceful drain: stop accepting, let in-flight estimates finish and be
  // answered, then close every connection. Order matters — readers wait on
  // their own pending count, so wait_idle() first is not required, but it
  // bounds the join below by "all work done".
  pool_.wait_idle();
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (Reader& r : readers_) r.thread.join();
    readers_.clear();
  }
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
  conn->closed.store(true, std::memory_order_release);
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

  // Every field is checked by the same table as the fairbench flag of the
  // same name (bench::request_fields), so daemon answers equal one-shot
  // answers. A field present with the wrong JSON type is rejected like a bad
  // value, never read as absent.
  bench::Args args;
  args.quiet = true;
  for (const bench::RequestField& field : bench::request_fields()) {
    const JsonValue* v = req.find(field.key);
    if (v == nullptr) continue;
    using Kind = bench::RequestField::Kind;
    std::optional<bench::FieldValue> value;
    if (field.kind == Kind::kU64) {
      if (const auto n = v->as_u64()) value = *n;
    } else if (field.kind == Kind::kNumber && v->type() == JsonValue::Type::kNumber) {
      value = v->as_number();
    }
    if (const auto error = bench::apply_field(field, value, args)) {
      return reject(quoted(std::string(field.key)) + " " + *error);
    }
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
      const ScenarioRunResult res = run_scenario(*spec, args, sink);
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
