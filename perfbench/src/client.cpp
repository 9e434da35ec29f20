// daemon_mix: a closed-loop NDJSON client of fairbenchd over a unix socket.
// Each connection keeps one request in flight; replies are checked as they
// arrive, and a seeded sample is recomputed in process through
// service::run_scenario with the same arguments the daemon derived.
#include <array>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "experiments/registry.h"
#include "modes.h"
#include "net/socket.h"
#include "service/json.h"
#include "service/runner.h"

namespace perfbench {

using fairsfe::service::JsonValue;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kMaxVerified = 24;

class Connection {
 public:
  explicit Connection(const std::string& path) : s_(fairsfe::net::unix_connect(path)) {}

  void send(std::string line) {
    line.push_back('\n');
    s_.write_all(fairsfe::ByteView(reinterpret_cast<const std::uint8_t*>(line.data()),
                                   line.size()));
  }

  /// Next line from the daemon; std::nullopt once it closed the stream.
  std::optional<std::string> read_line() {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      std::array<std::uint8_t, 65536> chunk;
      const std::size_t n = s_.read_some(chunk);
      if (n == 0) return std::nullopt;
      buf_.append(reinterpret_cast<const char*>(chunk.data()), n);
    }
    std::string line = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return line;
  }

 private:
  fairsfe::net::Stream s_;
  std::string buf_;
};

struct Sample {
  MixRequest req;
  double latency_ms = 0.0;
  bool ok = false;
  std::uint64_t runs = 0;  ///< Monte-Carlo runs the reply reports
  JsonValue report;        ///< kept only for the verified sample
  std::string error;
};

/// Monte-Carlo runs a fairbench report performed: the sum of its rows' runs.
std::uint64_t report_runs(const JsonValue& report) {
  std::uint64_t runs = 0;
  const JsonValue* rows = report.find("rows");
  if (rows == nullptr) return 0;
  for (const JsonValue& row : rows->as_array()) runs += row.get_u64("runs", 0);
  return runs;
}

/// Send one request and wait for its answer, validating it on the way.
Sample round_trip(Connection& c, const MixRequest& req, const std::string& id) {
  Sample s;
  s.req = req;
  const auto t0 = Clock::now();
  c.send(request_line(req, id));
  for (;;) {
    const std::optional<std::string> line = c.read_line();
    if (!line) {
      s.error = "daemon closed the connection before answering " + id;
      return s;
    }
    const std::optional<JsonValue> ev = fairsfe::service::json_parse(*line);
    if (!ev || !ev->is_object()) {
      s.error = "unparseable reply to " + id;
      return s;
    }
    const std::string event = ev->get_string("event");
    if (event == "progress" && ev->get_string("id") == id) continue;
    s.latency_ms = seconds_since(t0) * 1e3;
    if (req.status) {
      // Status events carry no id; one request is in flight per connection.
      s.ok = event == "status";
      if (!s.ok) s.error = "status poll " + id + " answered with '" + event + "'";
    } else if (ev->get_string("id") != id) {
      s.error = "reply id '" + ev->get_string("id") + "' for request " + id;
    } else if (event != "result") {
      s.error = "estimate " + id + " answered with '" + event + "': " + ev->get_string("message");
    } else if (ev->get_u64("deviations", 1) != 0) {
      s.error = "estimate " + id + " (" + kShapes[req.shape].scenario + ", seed " +
                std::to_string(req.seed) + ") reports paper-claim deviations:";
      const JsonValue* report = ev->find("report");
      const JsonValue* checks = report != nullptr ? report->find("checks") : nullptr;
      if (checks != nullptr) {
        for (const JsonValue& c : checks->as_array()) {
          if (c.find("ok") != nullptr && !c.find("ok")->as_bool()) {
            s.error += ' ';
            s.error += c.get_string("what");
          }
        }
      }
    } else {
      const JsonValue* report = ev->find("report");
      s.ok = report != nullptr;
      if (report != nullptr) {
        s.runs = report_runs(*report);
        if (req.verify) s.report = *report;
      }
    }
    return s;
  }
}

/// JSON equality that ignores wall-clock fields (timings differ run to run).
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.as_bool() == b.as_bool();
    case JsonValue::Type::kNumber:
      return a.as_number() == b.as_number();
    case JsonValue::Type::kString:
      return a.as_string() == b.as_string();
    case JsonValue::Type::kArray: {
      if (a.as_array().size() != b.as_array().size()) return false;
      for (std::size_t i = 0; i < a.as_array().size(); ++i) {
        if (!same_json(a.as_array()[i], b.as_array()[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      const auto& am = a.members();
      const auto& bm = b.members();
      if (am.size() != bm.size()) return false;
      for (std::size_t i = 0; i < am.size(); ++i) {
        if (am[i].first != bm[i].first) return false;
        const std::string& k = am[i].first;
        if (k == "wall_seconds" || k == "runs_per_sec" || k == "seconds") continue;
        if (!same_json(am[i].second, bm[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

const fairsfe::experiments::ScenarioSpec& shape_spec(const MixRequest& r) {
  const auto* spec = fairsfe::experiments::Registry::instance().find(kShapes[r.shape].scenario);
  if (spec == nullptr) throw std::runtime_error("unregistered scenario");
  return *spec;
}

/// The report an in-process run_scenario gives for the request.
std::string run_in_process(const MixRequest& r) {
  return fairsfe::service::run_scenario(shape_spec(r), request_args(r)).json;
}

/// Run `kConnections` closed loops; connection c sends next(c, k) as its
/// k-th request while more(k) holds. Samples come back per connection.
template <typename Next, typename More>
std::vector<std::vector<Sample>> closed_loop(const std::string& path, Next next, More more,
                                             std::vector<std::string>& errors) {
  std::vector<std::vector<Sample>> samples(kConnections);
  std::mutex mu;
  // jthread: joined on every path, before `samples` and `mu` go away.
  std::vector<std::jthread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Connection conn(path);
        for (std::size_t k = 0; more(k); ++k) {
          char id[48];
          std::snprintf(id, sizeof(id), "c%zur%zu", c, k);
          samples[c].push_back(round_trip(conn, next(c, k), id));
          if (!samples[c].back().ok) break;  // the stream may be out of step now
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back("connection " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  return samples;
}

}  // namespace

void run_client(const std::string& socket_path, std::uint64_t seed, double seconds,
                Result& out) {
  std::vector<MixStream> streams;
  for (std::size_t c = 0; c < kConnections; ++c) streams.emplace_back(seed, c);
  std::vector<std::string> errors;
  const auto t0 = Clock::now();
  const auto samples = closed_loop(
      socket_path, [&](std::size_t c, std::size_t) { return streams[c].next(); },
      [&](std::size_t) { return seconds_since(t0) < seconds; }, errors);
  const double wall = seconds_since(t0);
  for (const std::string& e : errors) out.fail(e);

  // Throughput is averaged over the whole run: every request is drawn
  // afresh, so short windows differ in their mix and their best one would
  // reward a cheap mix rather than fast code.
  std::vector<double> latencies_ms;
  std::uint64_t runs = 0;
  std::uint64_t status_polls = 0;
  std::vector<const Sample*> verify;
  for (const auto& conn : samples) {
    for (const Sample& s : conn) {
      out.attempted += 1;
      if (!s.ok) {
        out.failed += 1;
        out.fail(s.error);
        continue;
      }
      if (s.req.status) {
        status_polls += 1;
        continue;
      }
      latencies_ms.push_back(s.latency_ms);
      runs += s.runs;
      if (s.req.verify && verify.size() < kMaxVerified) verify.push_back(&s);
    }
  }
  const double p99 = quantile(latencies_ms, 0.99);
  std::size_t beyond = 0;
  for (const double l : latencies_ms) beyond += l > p99 ? 1 : 0;
  out.metric("req_per_s", static_cast<double>(latencies_ms.size()) / wall, "req/s");
  out.metric("req_p50_ms", median(latencies_ms), "ms");
  out.metric("req_p99_ms", p99, "ms");
  out.metric("runs_per_s", static_cast<double>(runs) / wall, "runs/s");
  out.line("%zu estimate replies and %llu status polls over %zu connections in %.2f s; "
           "%zu beyond p99",
           latencies_ms.size(), static_cast<unsigned long long>(status_polls), kConnections,
           wall, beyond);
  if (beyond < 10) out.line("warning: fewer than 10 samples beyond p99");

  // The seeded sample: every reply must equal the in-process answer.
  std::size_t matched = 0;
  for (const Sample* s : verify) {
    const auto mine = fairsfe::service::json_parse(run_in_process(s->req));
    if (mine && same_json(*mine, s->report)) {
      ++matched;
    } else {
      out.fail(std::string("daemon reply for ") + kShapes[s->req.shape].scenario +
               " seed " + std::to_string(s->req.seed) + " differs from run_scenario");
    }
  }
  out.line("%zu of %zu sampled replies equal in-process service::run_scenario", matched,
           verify.size());
  if (verify.empty()) out.fail("the seeded verification sample is empty");
}

void run_service_probe(const std::string& socket_path, std::uint64_t seed, Result& out) {
  // A fixed list: per connection, the first kPerConnection estimates of its
  // stream (status polls dropped), sent closed-loop, then run in process.
  constexpr std::size_t kPerConnection = 24;
  std::vector<std::vector<MixRequest>> lists(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    MixStream stream(seed, c);
    while (lists[c].size() < kPerConnection) {
      const MixRequest r = stream.next();
      if (!r.status) lists[c].push_back(r);
    }
  }
  std::vector<std::string> errors;
  const auto samples = closed_loop(
      socket_path, [&](std::size_t c, std::size_t k) { return lists[c][k]; },
      [&](std::size_t k) { return k < kPerConnection; }, errors);
  for (const std::string& e : errors) out.fail(e);

  std::vector<double> client_ms;
  for (const auto& conn : samples) {
    for (const Sample& s : conn) {
      if (s.ok) {
        client_ms.push_back(s.latency_ms);
      } else {
        out.fail(s.error);
      }
    }
  }
  std::vector<double> local_ms;
  std::array<std::vector<double>, kNumShapes> shape_ms;
  for (const auto& list : lists) {
    for (const MixRequest& r : list) {
      const auto t0 = Clock::now();
      (void)run_in_process(r);
      const double ms = seconds_since(t0) * 1e3;
      local_ms.push_back(ms);
      shape_ms[r.shape].push_back(ms);
    }
  }
  out.line("service probe: %zu requests over %zu connections, client p50 %.3f ms, "
           "in-process p50 %.3f ms",
           client_ms.size(), kConnections, median(client_ms), median(local_ms));
  for (std::size_t k = 0; k < kNumShapes; ++k) {
    const std::string scenario = kShapes[k].scenario;
    const std::string name = "service.run_scenario_ms." + scenario.substr(0, 5);
    out.metric(name, median(shape_ms[k]), "ms");
    out.line("  %-36s %9.3f ms  (%zu calls, runs=%zu lanes=%zu)", name.c_str(),
             median(shape_ms[k]), shape_ms[k].size(), kShapes[k].runs, kShapes[k].lanes);
  }
  out.metric("service.overhead_ms", median(client_ms) - median(local_ms), "ms");
}

}  // namespace perfbench
