// fairbenchd daemon tests: a daemon answer is bit-identical to a one-shot
// fairbench run of the same (scenario, seed, runs) — across daemon worker
// counts — and the NDJSON control surface (list/status/shutdown, error
// handling, over-long lines, concurrent requests) behaves as documented in
// service/daemon.h.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "net/socket.h"
#include "service/daemon.h"
#include "service/runner.h"
#include "service/signals.h"

namespace fairsfe::service {
namespace {

constexpr const char* kScenario = "exp01_contract_fairness";

/// How long a client waits for the daemon's next bytes before failing.
constexpr std::chrono::seconds kReadTimeout(30);

/// Line-oriented NDJSON client over a connected stream.
class Client {
 public:
  explicit Client(net::Stream s) : stream_(std::move(s)) {}

  void send(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& bytes) {
    stream_.write_all(ByteView(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  }

  /// Next response line. Throws on EOF or after kReadTimeout without data,
  /// so a closed or hung daemon fails the test instead of deadlocking it.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (read_chunk() == 0) throw std::runtime_error("daemon closed the connection");
    }
  }

  /// True when the daemon closes the connection with no unread line left.
  bool closed_by_daemon() { return buf_.empty() && read_chunk() == 0; }

  /// Read until an event line of the given type arrives; progress lines in
  /// between are counted, any other non-progress event fails the test.
  std::string read_until_event(const std::string& event, int* progress = nullptr) {
    for (;;) {
      const std::string line = read_line();
      if (line.find("\"event\":\"" + event + "\"") != std::string::npos) {
        return line;
      }
      if (line.find("\"event\":\"progress\"") != std::string::npos) {
        if (progress != nullptr) ++*progress;
        continue;
      }
      ADD_FAILURE() << "unexpected event while waiting for '" << event
                    << "': " << line;
      return line;
    }
  }

 private:
  /// Append the next bytes to buf_; 0 means EOF.
  std::size_t read_chunk() {
    if (!stream_.readable_for(kReadTimeout)) {
      throw std::runtime_error("no answer from the daemon");
    }
    std::uint8_t chunk[4096];
    const std::size_t n = stream_.read_some(chunk);
    buf_.append(reinterpret_cast<const char*>(chunk), n);
    return n;
  }

  net::Stream stream_;
  std::string buf_;
};

/// A daemon on a fresh unix socket with serve() running on its own thread.
class DaemonFixture {
 public:
  explicit DaemonFixture(std::size_t workers) {
    static int counter = 0;
    char path[128];
    std::snprintf(path, sizeof(path), "/tmp/fairsfe-test-%d-%d.sock",
                  static_cast<int>(::getpid()), counter++);
    DaemonConfig cfg;
    cfg.unix_path = path;
    cfg.workers = workers;
    cfg.quiet = true;
    path_ = path;
    daemon_ = std::make_unique<Daemon>(cfg);
    server_ = std::thread([this] { daemon_->serve(); });
  }

  ~DaemonFixture() {
    daemon_->stop();
    if (server_.joinable()) server_.join();
  }

  Client client() { return Client(net::unix_connect(path_)); }
  Daemon& daemon() { return *daemon_; }

 private:
  std::string path_;
  std::unique_ptr<Daemon> daemon_;
  std::thread server_;
};

/// Zero out the value of a numeric timing key everywhere in a JSON string:
/// wall-clock fields are the one part of a report that legitimately differs
/// between two bit-identical estimates.
std::string scrub_key(const std::string& json, const std::string& key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  std::string out;
  out.reserve(json.size());
  std::size_t from = 0;
  std::size_t pos;
  while ((pos = json.find(needle, from)) != std::string::npos) {
    std::size_t v = pos + needle.size();
    while (v < json.size() && json[v] == ' ') ++v;
    std::size_t end = v;
    while (end < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[end])) ||
            json[end] == '.' || json[end] == '-' || json[end] == '+' ||
            json[end] == 'e' || json[end] == 'E')) {
      ++end;
    }
    out.append(json, from, v - from).push_back('0');
    from = end;
  }
  out.append(json, from);
  return out;
}

std::string scrub_timing(std::string json) {
  for (const char* key : {"wall_seconds", "runs_per_sec", "seconds"}) {
    json = scrub_key(json, key);
  }
  return json;
}

/// The one-shot answer the daemon must reproduce: service::run_scenario with
/// the very Args an estimate request describes, flattened to one line the
/// way the daemon frames reports (strip '\n'), timing scrubbed.
std::string one_shot_report(std::size_t runs, std::uint64_t seed) {
  const experiments::ScenarioSpec* spec =
      experiments::Registry::instance().find(kScenario);
  EXPECT_NE(spec, nullptr);
  bench::Args args;
  args.quiet = true;
  args.runs = runs;
  args.runs_set = true;
  args.seed = seed;
  const ScenarioRunResult res = run_scenario(*spec, args);
  std::string json = res.json;
  json.erase(std::remove(json.begin(), json.end(), '\n'), json.end());
  return scrub_timing(json);
}

std::string estimate_request(const std::string& id, std::size_t runs,
                             std::uint64_t seed) {
  return std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario +
         "\",\"runs\":" + std::to_string(runs) +
         ",\"seed\":" + std::to_string(seed) + ",\"id\":\"" + id + "\"}";
}

/// Extract the report object from a result event line (it is the value of
/// the final "report" key, running to the line's last byte minus the event
/// object's own closing brace).
std::string report_of(const std::string& result_line) {
  const std::size_t pos = result_line.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << result_line;
  if (pos == std::string::npos) return {};
  std::string report = result_line.substr(pos + 9);
  EXPECT_FALSE(report.empty());
  EXPECT_EQ(report.back(), '}');
  report.pop_back();  // the result event's own '}'
  return report;
}

TEST(Service, DaemonAnswerBitIdenticalToOneShot) {
  const std::string expected = one_shot_report(12, 5);
  DaemonFixture fx(2);
  Client c = fx.client();
  c.send(estimate_request("r1", 12, 5));
  int progress = 0;
  const std::string line = c.read_until_event("result", &progress);
  EXPECT_GT(progress, 0) << "no progress events streamed";
  EXPECT_NE(line.find("\"id\":\"r1\""), std::string::npos);
  EXPECT_NE(line.find("\"scenario\":\"" + std::string(kScenario) + "\""),
            std::string::npos);
  EXPECT_EQ(scrub_timing(report_of(line)), expected);
}

TEST(Service, DaemonAnswerBitIdenticalAcrossWorkerCounts) {
  const std::string expected = one_shot_report(10, 9);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    DaemonFixture fx(workers);
    Client c = fx.client();
    c.send(estimate_request("w", 10, 9));
    EXPECT_EQ(scrub_timing(report_of(c.read_until_event("result"))), expected)
        << workers << " workers";
  }
}

TEST(Service, ConcurrentRequestsAllAnsweredIdentically) {
  // Three connections, two pipelined requests each, one shared worker pool:
  // every request is answered, ids route to the right caller, and identical
  // requests yield identical reports regardless of scheduling.
  const std::string expected = one_shot_report(8, 21);
  DaemonFixture fx(4);
  std::vector<std::string> reports(6);
  std::vector<std::thread> clients;
  for (int cidx = 0; cidx < 3; ++cidx) {
    clients.emplace_back([cidx, &fx, &reports] {
      Client c = fx.client();
      const std::string id0 = "c" + std::to_string(cidx) + "a";
      const std::string id1 = "c" + std::to_string(cidx) + "b";
      c.send(estimate_request(id0, 8, 21));
      c.send(estimate_request(id1, 8, 21));
      for (int got = 0; got < 2; ++got) {
        const std::string line = c.read_until_event("result");
        const bool is0 = line.find("\"id\":\"" + id0 + "\"") != std::string::npos;
        const bool is1 = line.find("\"id\":\"" + id1 + "\"") != std::string::npos;
        EXPECT_TRUE(is0 || is1) << "foreign id on this connection: " << line;
        reports[cidx * 2 + (is1 ? 1 : 0)] = scrub_timing(report_of(line));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], expected) << "request " << i;
  }
  EXPECT_EQ(fx.daemon().served(), 6u);
}

TEST(Service, TcpListenerServesTheSameProtocol) {
  DaemonConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  cfg.workers = 1;
  cfg.quiet = true;
  Daemon daemon(cfg);
  ASSERT_NE(daemon.tcp_port(), 0);
  std::thread server([&daemon] { daemon.serve(); });
  {
    Client c(net::tcp_connect("127.0.0.1", daemon.tcp_port()));
    c.send("{\"verb\":\"list\"}");
    const std::string line = c.read_until_event("scenarios");
    EXPECT_NE(line.find("\"count\":22"), std::string::npos) << line;
    EXPECT_NE(line.find("\"exp01_contract_fairness\""), std::string::npos);
  }
  daemon.stop();
  server.join();
}

TEST(Service, StatusCountsServedRequests) {
  DaemonFixture fx(1);
  Client c = fx.client();
  c.send("{\"verb\":\"status\"}");
  std::string line = c.read_until_event("status");
  EXPECT_NE(line.find("\"active\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"served\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"workers\":1"), std::string::npos) << line;
  EXPECT_NE(line.find("\"connections\":1"), std::string::npos) << line;
  c.send(estimate_request("s1", 8, 1));
  c.read_until_event("result");
  // A status issued after the result was read must observe it as served.
  c.send("{\"verb\":\"status\"}");
  line = c.read_until_event("status");
  EXPECT_NE(line.find("\"active\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"served\":1"), std::string::npos) << line;
}

TEST(Service, MalformedAndUnknownRequestsGetErrorEvents) {
  DaemonFixture fx(1);
  Client c = fx.client();
  c.send("this is not json");
  EXPECT_NE(c.read_until_event("error").find("malformed"), std::string::npos);
  c.send("{\"verb\":\"frobnicate\",\"id\":\"x\"}");
  EXPECT_NE(c.read_until_event("error").find("unknown verb"), std::string::npos);
  c.send("{\"verb\":\"estimate\",\"scenario\":\"no_such\",\"id\":\"y\"}");
  EXPECT_NE(c.read_until_event("error").find("unknown scenario"),
            std::string::npos);
  c.send(std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario +
         "\",\"runs\":0,\"id\":\"q\"}");
  EXPECT_NE(c.read_until_event("error").find("positive"), std::string::npos);
  // The connection survives every error: a well-formed request still works.
  c.send("{\"verb\":\"list\"}");
  EXPECT_NE(c.read_until_event("scenarios").find("\"count\":22"),
            std::string::npos);
}

TEST(Service, BadLanesGetsErrorAndConnectionStillEstimates) {
  // A lane width the estimator cannot run used to trip a contract check and
  // abort the whole daemon; it must be an error event for that request only.
  const std::string expected = one_shot_report(8, 4);
  DaemonFixture fx(1);
  Client c = fx.client();
  c.send(std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario +
         "\",\"lanes\":3,\"id\":\"bad\"}");
  const std::string error = c.read_until_event("error");
  EXPECT_NE(error.find("lanes"), std::string::npos) << error;
  EXPECT_NE(error.find("\"id\":\"bad\""), std::string::npos) << error;
  c.send(estimate_request("good", 8, 4));
  const std::string line = c.read_until_event("result");
  EXPECT_NE(line.find("\"id\":\"good\""), std::string::npos);
  EXPECT_EQ(scrub_timing(report_of(line)), expected);
}

TEST(Service, OverlongLineClosesOnlyThatConnection) {
  // A client streaming bytes without a newline must not grow the daemon's
  // line buffer without bound: past kMaxRequestLine it gets one error event
  // and EOF, and every other connection is served as before.
  const std::string expected = one_shot_report(8, 6);
  DaemonFixture fx(1);
  Client other = fx.client();
  {
    Client c = fx.client();
    c.send_raw(std::string(kMaxRequestLine + 1, 'x'));
    const std::string error = c.read_until_event("error");
    EXPECT_NE(error.find("longer than"), std::string::npos) << error;
    EXPECT_TRUE(c.closed_by_daemon());
  }
  other.send("{\"verb\":\"list\"}");
  EXPECT_NE(other.read_until_event("scenarios").find("\"count\":22"),
            std::string::npos);
  Client fresh = fx.client();
  fresh.send(estimate_request("after", 8, 6));
  const std::string line = fresh.read_until_event("result");
  EXPECT_NE(line.find("\"id\":\"after\""), std::string::npos);
  EXPECT_EQ(scrub_timing(report_of(line)), expected);
}

TEST(Service, ShutdownVerbDrainsWithoutPoisoningTheGlobalFlag) {
  ASSERT_FALSE(stop_requested())
      << "global stop flag set before the test - ordering bug";
  DaemonFixture fx(1);
  Client c = fx.client();
  c.send(estimate_request("d1", 8, 2));
  c.send("{\"verb\":\"shutdown\"}");
  // The in-flight estimate is answered even though shutdown arrived first:
  // bye acknowledges the verb, then the drain still delivers the result.
  bool saw_bye = false;
  bool saw_result = false;
  while (!saw_bye || !saw_result) {
    const std::string line = c.read_line();
    if (line.find("\"event\":\"progress\"") != std::string::npos) continue;
    saw_bye |= line.find("\"event\":\"bye\"") != std::string::npos;
    saw_result |= line.find("\"event\":\"result\"") != std::string::npos;
    ASSERT_TRUE(line.find("\"event\":\"error\"") == std::string::npos) << line;
  }
  EXPECT_TRUE(saw_bye);
  EXPECT_TRUE(saw_result);
  EXPECT_EQ(fx.daemon().served(), 1u);
  // The daemon's own stop flag, not service::request_stop(): a second
  // daemon in this very process must stay serviceable.
  EXPECT_FALSE(stop_requested());
  DaemonFixture fx2(1);
  Client c2 = fx2.client();
  c2.send("{\"verb\":\"list\"}");
  EXPECT_NE(c2.read_until_event("scenarios").find("\"count\":22"),
            std::string::npos);
}

}  // namespace
}  // namespace fairsfe::service
