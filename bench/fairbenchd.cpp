// fairbenchd — the long-running estimation daemon (see src/service/daemon.h
// for the NDJSON protocol).
//
//   fairbenchd --unix /tmp/fairbenchd.sock --workers 4
//   fairbenchd --port 9600 --workers 0          # TCP on 127.0.0.1:9600
//   fairbenchd --port 0                         # ephemeral port, printed
//
// One process keeps the scenario registry and the compiled circuit-plan
// cache warm, and shards estimate requests across a persistent worker pool.
// Answers are bit-identical to one-shot `fairbench` runs of the same
// (scenario, runs, seed, threads, lanes, target_ci) — both go through
// service::run_scenario.
//
// SIGINT/SIGTERM (or the "shutdown" verb) drains gracefully: in-flight
// estimates finish and are answered, connections are closed cleanly, the
// unix socket file is unlinked, and the process exits 0.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "experiments/report.h"
#include "service/daemon.h"
#include "service/signals.h"

using namespace fairsfe;

namespace {

void print_usage() {
  std::printf(
      "usage: fairbenchd [--unix <path> | --host H --port P] [--workers N]\n"
      "                  [--quiet]\n"
      "\n"
      "  --unix       listen on a unix-domain socket at <path>\n"
      "  --host       TCP bind address (default 127.0.0.1)\n"
      "  --port       TCP port in [0, 65535] (0 = ephemeral, printed at\n"
      "               startup); TCP is the default when --unix is not given\n"
      "               (port 9600)\n"
      "  --workers    estimate worker threads in [0, %zu] (0 = one per\n"
      "               hardware thread; default 1 — each request's own\n"
      "               \"threads\" field additionally shards its Monte-Carlo\n"
      "               runs)\n"
      "  --quiet      suppress the stdout log\n"
      "\n"
      "protocol: newline-delimited JSON requests, e.g.\n"
      "  {\"verb\":\"estimate\",\"scenario\":\"exp01_contract_fairness\","
      "\"runs\":400,\"seed\":7}\n"
      "  {\"verb\":\"list\"} | {\"verb\":\"status\"} | {\"verb\":\"shutdown\"}\n",
      rpd::kMaxThreads);
}

}  // namespace

int main(int argc, char** argv) {
  service::DaemonConfig cfg;
  cfg.tcp_port = 9600;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--unix" && has_value) {
      cfg.unix_path = argv[++i];
    } else if (arg == "--host" && has_value) {
      cfg.tcp_host = argv[++i];
    } else if (arg == "--port" && has_value) {
      cfg.tcp_port = static_cast<std::uint16_t>(
          bench::parse_bounded("fairbenchd", arg, argv[++i], 65535));
    } else if (arg == "--workers" && has_value) {
      // Worker threads take the values of a request's "threads" field.
      bench::Args workers;
      bench::apply_flag("fairbenchd", arg, *bench::find_field("threads"), argv[++i], workers);
      cfg.workers = workers.threads;
    } else if (arg == "--quiet") {
      cfg.quiet = true;
    } else {
      std::fprintf(stderr, "fairbenchd: unrecognized argument '%s'\n",
                   arg.c_str());
      print_usage();
      return 2;
    }
  }

  service::install_stop_handlers();
  try {
    service::Daemon daemon(cfg);
    daemon.serve();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fairbenchd: %s\n", e.what());
    return 1;
  }
  return 0;
}
