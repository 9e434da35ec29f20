// fairbenchd daemon tests: a daemon answer is bit-identical to a one-shot
// fairbench run of the same (scenario, seed, runs) — across daemon worker
// counts — and the NDJSON control surface (list/status/shutdown, error
// handling, over-long lines, concurrent requests, clients that stop reading,
// seeded framing fuzz) behaves as documented in service/daemon.h.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/rng.h"
#include "experiments/registry.h"
#include "experiments/report.h"
#include "net/socket.h"
#include "service/daemon.h"
#include "service/json.h"
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
    std::promise<void> returned;
    returned_ = returned.get_future();
    server_ = std::thread([this, returned = std::move(returned)]() mutable {
      daemon_->serve();
      returned.set_value();
    });
  }

  ~DaemonFixture() {
    daemon_->stop();
    if (server_.joinable()) server_.join();
  }

  Client client() { return Client(net::unix_connect(path_)); }
  Daemon& daemon() { return *daemon_; }

  /// stop() the daemon; true when serve() then returns within `bound`.
  bool stop_within(std::chrono::milliseconds bound) {
    daemon_->stop();
    return returned_.wait_for(bound) == std::future_status::ready;
  }

 private:
  std::string path_;
  std::unique_ptr<Daemon> daemon_;
  std::future<void> returned_;  ///< ready once serve() has returned
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
  // "preproc" is no request field: like any unknown key it is ignored, and
  // the answer is the one-shot report of the request without it.
  const std::string with_preproc = estimate_request("r2", 12, 5);
  c.send(with_preproc.substr(0, with_preproc.size() - 1) + ",\"preproc\":\"offline_ot\"}");
  const std::string line2 = c.read_until_event("result");
  EXPECT_NE(line2.find("\"id\":\"r2\""), std::string::npos);
  EXPECT_EQ(scrub_timing(report_of(line2)), expected);
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
  // Resource caps, and numbers with no uint64 value (JSON numbers are
  // doubles; converting one at or above 2^64 would be undefined).
  const std::string over_runs = std::to_string(rpd::kMaxRuns + 1);
  const std::string over_threads = std::to_string(rpd::kMaxThreads + 1);
  for (const auto& [fields, key] : std::vector<std::pair<std::string, std::string>>{
           {"\"runs\":" + over_runs, "runs"},
           {"\"runs\":1e300", "runs"},
           {"\"threads\":" + over_threads, "threads"},
           {"\"threads\":1e20", "threads"},
           {"\"seed\":1e30", "seed"},
           {"\"seed\":18446744073709551616", "seed"},
           {"\"seed\":-1", "seed"},
           {"\"target_ci\":-1", "target_ci"},
           {"\"target_ci\":\"0.05\"", "target_ci"}}) {
    c.send(std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario +
           "\"," + fields + ",\"id\":\"cap\"}");
    const std::string error = c.read_until_event("error");
    EXPECT_NE(error.find("\\\"" + key + "\\\""), std::string::npos)
        << fields << ": " << error;
    EXPECT_NE(error.find("\"id\":\"cap\""), std::string::npos) << error;
  }
  // The connection survives every error: a well-formed request still works.
  c.send("{\"verb\":\"list\"}");
  EXPECT_NE(c.read_until_event("scenarios").find("\"count\":22"),
            std::string::npos);
  c.send(estimate_request("good", 8, 4));
  const std::string line = c.read_until_event("result");
  EXPECT_NE(line.find("\"id\":\"good\""), std::string::npos) << line;
  EXPECT_EQ(scrub_timing(report_of(line)), one_shot_report(8, 4));
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

/// OS threads of this process: the entries of /proc/self/task.
std::size_t os_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

TEST(Service, ConnectionsAddNoThreadsAndLeaveTheStatusCount) {
  // The serving loop reads every connection itself: no connection, open or
  // past, adds an OS thread, and a closed one is out of the status count.
  DaemonFixture fx(1);
  const std::size_t threads = os_threads();
  for (int i = 0; i < 64; ++i) {
    Client c = fx.client();
    c.send("{\"verb\":\"status\"}");
    c.read_until_event("status");
  }
  {
    std::vector<Client> burst;
    for (int i = 0; i < 8; ++i) {
      burst.push_back(fx.client());
      burst.back().send("{\"verb\":\"status\"}");
    }
    for (Client& c : burst) c.read_until_event("status");
    EXPECT_EQ(os_threads(), threads) << "a thread per open connection";
  }
  Client c = fx.client();
  c.send("{\"verb\":\"status\"}");
  const std::string line = c.read_until_event("status");
  EXPECT_NE(line.find("\"connections\":1"), std::string::npos) << line;
  EXPECT_EQ(os_threads(), threads) << "a thread per past connection";
}

TEST(Service, ClientThatStopsReadingStallsNeitherOthersNorTheDrain) {
  // A client that pipelines requests and never reads fills its socket
  // buffer. The daemon's write to it then fails after net::kSendTimeout and
  // the connection is dropped: another client is still answered, and
  // serve() returns within one send timeout plus one poll interval of
  // stop().
  DaemonFixture fx(1);
  Client flooder = fx.client();
  Client other = fx.client();
  std::string flood;
  for (int i = 0; i < 2000; ++i) flood += "{\"verb\":\"list\"}\n";
  flooder.send_raw(flood);  // over 1 MB of answers: far past any socket buffer
  other.send("{\"verb\":\"status\"}");
  other.read_until_event("status");
  EXPECT_TRUE(fx.stop_within(net::kSendTimeout + kPollInterval))
      << "serve() still waits on the client that stopped reading";
}

/// One seeded fuzz line: its bytes (newline included) and the terminal event
/// it must get back, as "event/id" ("" when the line must get none).
struct FuzzLine {
  std::string bytes;
  std::string answer;
};

/// A line the daemon must answer with `event` carrying `id` (events with no
/// "id" key read as "").
FuzzLine framed(std::string request, const std::string& event, const std::string& id) {
  return {request + "\n", event + "/" + id};
}

/// One random line of the framing fuzz. Valid requests (sometimes ending in
/// \r\n, or padded to just under kMaxRequestLine) interleave with byte
/// garbage, NUL bytes, non-object JSON, wrongly typed fields and blank lines.
FuzzLine fuzz_line(Rng& rng, std::size_t k) {
  const std::string id = "f" + std::to_string(k);
  const std::string estimate =
      std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario + "\"";
  switch (rng.below(12)) {
    case 0:
      return framed("{\"verb\":\"list\"}", "scenarios", "");
    case 1:
      return framed("{\"verb\":\"status\",\"id\":\"" + id + "\"}\r", "status", "");
    case 2:
      if (rng.below(3) == 0) {
        return framed(estimate + ",\"runs\":4,\"seed\":" + std::to_string(k) +
                          ",\"id\":\"" + id + "\"}",
                      "result", id);
      }
      return framed("{\"verb\":\"status\"}", "status", "");
    case 3: {
      static const char* const kWrongTypes[] = {
          ",\"runs\":\"8\"", ",\"seed\":true", ",\"lanes\":null",
          ",\"target_ci\":{}", ",\"threads\":[1]", ",\"runs\":-3"};
      return framed(estimate + kWrongTypes[rng.below(6)] + ",\"id\":\"" + id + "\"}",
                    "error", id);
    }
    case 4: {
      static const char* const kWrongVerbs[] = {
          "{\"verb\":[\"list\"]", "{\"verb\":7", "{\"verb\":\"estimate\",\"scenario\":5",
          "{\"verb\":\"LIST\""};
      return framed(std::string(kWrongVerbs[rng.below(4)]) + ",\"id\":\"" + id + "\"}",
                    "error", id);
    }
    case 5: {
      static const char* const kNonObjects[] = {
          "[1,2]", "\"list\"", "42", "null", "true", "[{\"verb\":\"list\"}]", "{", "}"};
      return framed(kNonObjects[rng.below(8)], "error", "");
    }
    case 6: {  // byte garbage; the leading '#' is no JSON value's first byte
      std::string garbage = "#";
      for (const std::uint8_t b : rng.bytes(1 + rng.below(300))) {
        garbage.push_back(b == '\n' ? ' ' : static_cast<char>(b));
      }
      return framed(garbage, "error", "");
    }
    case 7: {  // a NUL before, inside or after an otherwise valid request
      std::string line = "{\"verb\":\"list\"}";
      line.insert(rng.below(line.size() + 1), 1, '\0');
      return framed(line, "error", "");
    }
    case 8: {  // unknown keys are ignored, up to just under the line cap
      std::string line = "{\"verb\":\"status\",\"pad\":\"\"}";
      const std::size_t length = kMaxRequestLine - rng.below(64) - (rng.bit() ? 1 : 0);
      line.insert(line.size() - 2, length - line.size(), 'x');
      return framed(line, "status", "");
    }
    case 9:
      return {rng.bit() ? "\n" : "\r\n", ""};
    default:
      return framed("{\"verb\":\"list\",\"id\":" + std::to_string(k) + "}", "scenarios", "");
  }
}

/// "event/id" of a terminal response event; "" for progress events.
std::string answer_of(const std::string& line) {
  const std::optional<JsonValue> event = json_parse(line);
  EXPECT_TRUE(event && event->is_object()) << line;
  if (!event || !event->is_object()) return "bad/";
  const std::string kind = event->get_string("event");
  return kind == "progress" ? "" : kind + "/" + event->get_string("id");
}

class FramingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramingFuzz, EveryFramedRequestGetsExactlyOneAnswer) {
  // Six connections send ~100 seeded lines between them, each line split
  // into up to three writes and the writes of all connections interleaved.
  // A seventh, clean connection is answered throughout; every well-framed
  // request gets exactly one terminal event with its id; and serve() drains
  // and returns after stop().
  constexpr std::size_t kConnections = 6;
  constexpr std::size_t kLines = 100;
  Rng rng(GetParam());
  DaemonFixture fx(2);
  Client clean = fx.client();
  std::vector<Client> clients;
  std::vector<std::vector<std::string>> pieces(kConnections);
  std::vector<std::map<std::string, int>> expected(kConnections);
  std::vector<int> answers(kConnections, 0);
  for (std::size_t i = 0; i < kConnections; ++i) clients.push_back(fx.client());
  for (std::size_t k = 0; k < kLines; ++k) {
    const std::size_t c = rng.below(kConnections);
    const FuzzLine line = fuzz_line(rng, k);
    if (!line.answer.empty()) {
      ++expected[c][line.answer];
      ++answers[c];
    }
    std::size_t from = 0;
    for (std::size_t cuts = rng.below(3); cuts > 0; --cuts) {
      const std::size_t to = from + rng.below(line.bytes.size() - from);
      pieces[c].push_back(line.bytes.substr(from, to - from));
      from = to;
    }
    pieces[c].push_back(line.bytes.substr(from));
  }
  std::vector<std::size_t> next(kConnections, 0);
  for (std::size_t sent = 0;; ++sent) {
    std::vector<std::size_t> open;
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (next[c] < pieces[c].size()) open.push_back(c);
    }
    if (open.empty()) break;
    const std::size_t c = open[rng.below(open.size())];
    clients[c].send_raw(pieces[c][next[c]++]);
    if (sent % 16 == 0) {
      clean.send("{\"verb\":\"status\"}");
      clean.read_until_event("status");
    }
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::map<std::string, int> got;
    for (int n = 0; n < answers[c];) {
      const std::string answer = answer_of(clients[c].read_line());
      if (answer.empty()) continue;
      ++got[answer];
      ++n;
    }
    EXPECT_EQ(got, expected[c]) << "connection " << c;
    // Inline answers keep request order, so a surplus answer to any line
    // would arrive before this one.
    clients[c].send("{\"verb\":\"status\"}");
    EXPECT_EQ(answer_of(clients[c].read_line()), "status/") << "connection " << c;
  }
  clean.send("{\"verb\":\"list\"}");
  EXPECT_NE(clean.read_until_event("scenarios").find("\"count\":22"), std::string::npos);
  // An estimate accepted before stop() is answered before its connection
  // closes: the status behind it proves the loop dispatched it.
  clients[0].send(estimate_request("last", 4, 1));
  clients[0].send("{\"verb\":\"status\"}");
  std::map<std::string, int> last;
  while (last.count("status/") == 0) {
    const std::string answer = answer_of(clients[0].read_line());
    if (!answer.empty()) ++last[answer];
  }
  EXPECT_TRUE(fx.stop_within(std::chrono::seconds(60)));
  while (!clients[0].closed_by_daemon()) {
    const std::string answer = answer_of(clients[0].read_line());
    if (!answer.empty()) ++last[answer];
  }
  EXPECT_EQ(last, (std::map<std::string, int>{{"result/last", 1}, {"status/", 1}}));
}

INSTANTIATE_TEST_SUITE_P(
    ServiceFuzz, FramingFuzz, ::testing::Values(1u, 2u, 3u),
    [](const ::testing::TestParamInfo<std::uint64_t>& seed) {
      return "seed_" + std::to_string(seed.param);
    });

/// One bad value of one run-request field, in each surface's syntax.
struct BadField {
  const char* name;  ///< test-name suffix
  const char* key;   ///< bench::RequestField::key
  const char* text;  ///< fairbench argv value
  const char* json;  ///< fairbenchd JSON value
};

void PrintTo(const BadField& bad, std::ostream* os) { *os << bad.name; }

/// Matches text containing `part` (gtest without gmock has no HasSubstr).
class Contains : public ::testing::MatcherInterface<const std::string&> {
 public:
  explicit Contains(std::string part) : part_(std::move(part)) {}
  bool MatchAndExplain(const std::string& text,
                       ::testing::MatchResultListener*) const override {
    return text.find(part_) != std::string::npos;
  }
  void DescribeTo(std::ostream* os) const override { *os << "contains: " << part_; }

 private:
  std::string part_;
};

class ServiceRequestContract : public ::testing::TestWithParam<BadField> {};

TEST_P(ServiceRequestContract, BothSurfacesRejectWithOneMessage) {
  // fairbench and fairbenchd check a run request through one field table:
  // the same bad value gets the same message body on both surfaces.
  const BadField& bad = GetParam();
  const bench::RequestField* field = bench::find_field(bad.key);
  ASSERT_NE(field, nullptr) << bad.key;

  std::string flag(field->flag);
  std::vector<char*> argv = {const_cast<char*>("fairbench"), flag.data(),
                             const_cast<char*>(bad.text)};
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(bench::parse_args(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2),
              ::testing::MakeMatcher(new Contains(flag + " " + field->want + ", got '" +
                                                  bad.text + "'")));

  DaemonFixture fx(1);
  Client c = fx.client();
  c.send(std::string("{\"verb\":\"estimate\",\"scenario\":\"") + kScenario + "\",\"" +
         bad.key + "\":" + bad.json + ",\"id\":\"bad\"}");
  const std::optional<JsonValue> event = json_parse(c.read_until_event("error"));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->get_string("message"), "\"" + std::string(bad.key) + "\" " + field->want);
}

static_assert(rpd::kMaxRuns + 1 == 1048577 && rpd::kMaxThreads + 1 == 257,
              "the bad runs/threads values below sit just above the caps");

// JSON has no NaN literal, so the daemon's NaN case is a non-number, which
// the table rejects with the same message as any other bad target_ci.
INSTANTIATE_TEST_SUITE_P(
    ServiceRejects, ServiceRequestContract,
    ::testing::Values(BadField{"zero_runs", "runs", "0", "0"},
                      BadField{"runs_above_cap", "runs", "1048577", "1048577"},
                      BadField{"threads_above_cap", "threads", "257", "257"},
                      BadField{"lanes_3", "lanes", "3", "3"},
                      BadField{"seed_2_pow_64", "seed", "18446744073709551616",
                               "18446744073709551616"},
                      BadField{"negative_target_ci", "target_ci", "-1", "-1"},
                      BadField{"nan_target_ci", "target_ci", "nan", "\"nan\""},
                      BadField{"infinite_target_ci", "target_ci", "inf", "1e999"}),
    [](const ::testing::TestParamInfo<BadField>& param) { return param.param.name; });

}  // namespace
}  // namespace fairsfe::service
