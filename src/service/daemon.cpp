#include "service/daemon.h"

#include <poll.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
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

/// Per-connection state, shared between the serving loop and in-flight
/// estimate jobs on the worker pool (shared_ptr keeps it, and so the open
/// fd, alive until both sides are done with it).
struct Daemon::Conn {
  explicit Conn(net::Stream s) : stream(std::move(s)) {}

  net::Stream stream;
  std::string linebuf;  ///< bytes after the last newline; the loop's alone

  /// Emit one response event line. Thread-safe; a failed write (peer gone
  /// or stalled past net::kSendTimeout) marks the connection dead and drops
  /// every later event, so a vanished client never takes a worker down.
  void write_event(std::string line) {
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(write_mu_);
    if (dead_) return;
    try {
      stream.write_all(line_bytes(line));
    } catch (const std::exception&) {
      dead_ = true;
    }
  }

  [[nodiscard]] bool alive() {
    std::lock_guard<std::mutex> lock(write_mu_);
    return !dead_;
  }

 private:
  std::mutex write_mu_;  ///< serializes response lines; guards dead_
  bool dead_ = false;
};

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      listener_(cfg_.unix_path.empty()
                    ? net::Listener::bind_tcp(cfg_.tcp_host, cfg_.tcp_port)
                    : net::Listener::bind_unix(cfg_.unix_path)),
      pool_(util::ThreadPool::resolve(cfg_.workers)) {}

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
  if (cfg_.unix_path.empty()) {
    log("fairbenchd: listening on %s:%u (%zu workers)\n", cfg_.tcp_host.c_str(),
        static_cast<unsigned>(listener_.port()), pool_.size());
  } else {
    log("fairbenchd: listening on unix:%s (%zu workers)\n",
        listener_.path().c_str(), pool_.size());
  }
  using Clock = std::chrono::steady_clock;
  // A readable listener that yields no connection is out of fds: polling it
  // again at once would spin, so it sits out until a connection closes or
  // kPollInterval passes.
  Clock::time_point accept_paused_until{};
  std::vector<pollfd> fds;
  while (!stopping()) {
    const bool listening = Clock::now() >= accept_paused_until;
    fds.clear();
    if (listening) fds.push_back({listener_.native_handle(), POLLIN, 0});
    for (const auto& conn : conns_) fds.push_back({conn->stream.native_handle(), POLLIN, 0});
    if (::poll(fds.data(), fds.size(), static_cast<int>(kPollInterval.count())) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    // A connection that is done is reset in place and erased after the pass,
    // so a status answered mid-pass already leaves it out of its count.
    const pollfd* conn_fds = fds.data() + (listening ? 1 : 0);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      std::shared_ptr<Conn>& conn = conns_[i];
      if (!(conn_fds[i].revents != 0 ? read_lines(conn) : conn->alive())) conn.reset();
    }
    if (std::erase(conns_, nullptr) > 0) accept_paused_until = {};
    if (listening && fds.front().revents != 0) {
      if (std::optional<net::Stream> s = listener_.accept()) {
        conns_.push_back(std::make_shared<Conn>(std::move(*s)));
      } else {
        accept_paused_until = Clock::now() + kPollInterval;
      }
    }
  }
  // Graceful drain: in-flight estimates finish and are answered; dropping
  // the loop's references then closes every connection.
  pool_.wait_idle();
  conns_.clear();
  log("fairbenchd: drained, served %llu request(s)\n",
      static_cast<unsigned long long>(served()));
}

/// Read what the client sent and answer its complete lines. False once the
/// connection is done: EOF, a read error, an overlong line or a failed write.
bool Daemon::read_lines(const std::shared_ptr<Conn>& conn) {
  std::array<std::uint8_t, 4096> chunk;
  std::size_t n = 0;
  try {
    n = conn->stream.read_some(chunk);
  } catch (const std::exception&) {
    return false;
  }
  if (n == 0) return false;  // client EOF
  std::string& buf = conn->linebuf;
  buf.append(reinterpret_cast<const char*>(chunk.data()), n);
  std::size_t nl;
  while (conn->alive() && (nl = buf.find('\n')) != std::string::npos &&
         nl <= kMaxRequestLine) {
    std::string line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    dispatch(line, conn);
  }
  if (buf.size() > kMaxRequestLine) {
    conn->write_event(error_event(
        "", "request line longer than " + std::to_string(kMaxRequestLine) +
                " bytes; closing the connection"));
    return false;
  }
  return conn->alive();
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
        std::to_string(conns_.size() - std::ranges::count(conns_, nullptr)) + "}");
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
  });
}

}  // namespace fairsfe::service
