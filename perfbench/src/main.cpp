// fsbench — the measuring half of the repository benchmark (perfbench/run.py
// builds it, starts fairbenchd where needed, and prints the verdict).
//
//   fsbench --mode setup  --workload W --seed N
//   fsbench --mode batch  --workload W --seed N --seconds S --out result.json
//   fsbench --mode client --seed N --seconds S --socket d.sock --out result.json
//   fsbench --mode trace  --workload W --seed N --socket d.sock
//           --spans spans.csv --replay "<command>" --out result.json
//
// setup and batch print "ready" on stdout once the workload is built, so the
// caller can time set-up from process start. Results, including failed
// correctness checks, go to --out as one JSON object.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "modes.h"

using namespace perfbench;

namespace {

struct Cli {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string socket;
  std::string spans;
  std::string replay;
  std::string out;
};

bool parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--mode") {
      cli.mode = value;
    } else if (flag == "--workload") {
      cli.workload = value;
    } else if (flag == "--seed") {
      cli.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cli.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--socket") {
      cli.socket = value;
    } else if (flag == "--spans") {
      cli.spans = value;
    } else if (flag == "--replay") {
      cli.replay = value;
    } else if (flag == "--out") {
      cli.out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !cli.mode.empty();
}

void ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) {
    std::fprintf(stderr, "usage: fsbench --mode setup|batch|client|trace [--workload W] "
                         "[--seed N] [--seconds S] [--socket P] [--spans F] [--replay CMD] "
                         "[--out F]\n");
    return 2;
  }
  try {
    Result out;
    if (cli.mode == "setup" || cli.mode == "batch") {
      const BatchWorkload w = make_batch_workload(cli.workload, cli.seed);
      ready();
      if (cli.mode == "setup") return 0;
      run_batch(w, cli.seconds, out);
    } else if (cli.mode == "client") {
      run_client(cli.socket, cli.seed, cli.seconds, out);
    } else if (cli.mode == "trace") {
      run_trace(TraceInput{cli.workload, cli.seed, cli.spans, cli.replay}, out);
      run_crypto_probes(cli.seed, out);
      run_mpc_probes(cli.seed, out);
      run_service_probe(cli.socket, cli.seed, out);
    } else {
      std::fprintf(stderr, "fsbench: unknown mode '%s'\n", cli.mode.c_str());
      return 2;
    }
    if (!out.write(cli.out)) {
      std::fprintf(stderr, "fsbench: cannot write %s\n", cli.out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
