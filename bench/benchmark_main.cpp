// The main of the google-benchmark binaries (perf_crypto, perf_protocols).
// Same CLI surface as fairbench: --json and --filter are translated onto
// google-benchmark's flags, anything unrecognized passes through to
// benchmark::Initialize untouched.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "experiments/report.h"

int main(int argc, char** argv) {
  const fairsfe::bench::Args args = fairsfe::bench::parse_args(argc, argv);
  std::vector<std::string> fwd;
  fwd.emplace_back(argv[0]);
  if (!args.json_path.empty()) {
    fwd.emplace_back("--benchmark_out=" + args.json_path);
    fwd.emplace_back("--benchmark_out_format=json");
  }
  if (!args.filter.empty()) {
    fwd.emplace_back("--benchmark_filter=" + args.filter);
  }
  for (const std::string& extra : args.passthrough) fwd.push_back(extra);
  std::vector<char*> fwd_argv;
  fwd_argv.reserve(fwd.size());
  for (std::string& s : fwd) fwd_argv.push_back(s.data());
  int fwd_argc = static_cast<int>(fwd_argv.size());
  benchmark::Initialize(&fwd_argc, fwd_argv.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
