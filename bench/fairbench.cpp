// fairbench — the single driver for every registered experiment.
//
// Replaces the 18 one-binary-per-experiment exp* harnesses: the scenario
// table lives in experiments::Registry (src/experiments/scenarios/), and
// this binary only selects, runs, and reports. The per-scenario work itself
// lives in service::run_scenario — the same function fairbenchd serves over
// a socket, which is what makes daemon answers bit-identical to one-shot
// runs.
//
//   fairbench --list                       enumerate registered scenarios
//   fairbench --filter exp05 [runs]        run a selection (glob / substring
//                                          / tag; empty filter = everything)
//   fairbench --filter opt2 --json out.json --runs 500 --threads 0
//   fairbench --filter exp18 --json new.json --baseline BENCH_fault.json
//   fairbench --filter gmw --preproc offline_ideal
//   fairbench --filter exp01 --seed 7
//
// JSON: one scenario selected -> a single object, byte-compatible with the
// files the old exp* binaries wrote (BENCH_*.json); several -> an array of
// those objects. --baseline feeds the fresh JSON plus the given baseline to
// scripts/bench_diff.py (run from the repository root).
//
// --preproc moves the OT correlations of GMW-backed scenarios into an
// offline phase: for every selected scenario that declares a PreprocBudget,
// the driver mass-produces ONE timed CorrelatedRandomness batch sized for
// all of the scenario's runs (runs × triples_per_run) and hands it to the
// body via ScenarioContext, so the whole Monte-Carlo sweep amortizes a
// single offline phase. Utilities and verdicts are invariant under the mode.
//
// SIGINT/SIGTERM: the run stops at the next scenario boundary — the scenario
// in flight finishes, the JSON collected so far is flushed intact, and the
// process exits 0 (a Ctrl-C never truncates --json output mid-array).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "service/runner.h"
#include "service/signals.h"

using namespace fairsfe;

namespace {

void print_usage() {
  std::printf(
      "usage: fairbench [--list] [--filter <glob|substring|tag>] [runs] [--runs N]\n"
      "                 [--threads N] [--json out.json] [--baseline old.json]\n"
      "                 [--lanes {1,64}] [--target-ci H] [--seed S] [--quiet]\n"
      "\n"
      "  --list       print the scenario table and exit\n"
      "  --filter     select scenarios by id glob, id substring, or tag glob\n"
      "  runs/--runs  Monte-Carlo runs per point (default: per-scenario)\n"
      "  --threads    estimator threads (0 = one per hardware thread)\n"
      "  --json       write the report(s): one object for a single scenario,\n"
      "               an array for several\n"
      "  --baseline   after --json, diff against a baseline via\n"
      "               scripts/bench_diff.py (run from the repo root)\n"
      "  --preproc    correlated-randomness phase split: inline (default),\n"
      "               offline_ideal (trusted dealer), offline_ot (real OT\n"
      "               rounds run up front); one offline batch per scenario\n"
      "  --lanes      execution lane width: 1 = scalar engine (default), 64 =\n"
      "               bit-sliced (64 runs per machine word) for scenarios that\n"
      "               register a sliced path; estimates are bit-identical\n"
      "  --target-ci  stop each estimation once its 95%% CI half-width\n"
      "               (1.96 * std_error) reaches H instead of always doing\n"
      "               the full run count; deterministic given (seed, H)\n"
      "  --seed       replay the whole run under one master seed (overrides\n"
      "               every per-point seed; what fairbenchd's \"seed\" field\n"
      "               maps to)\n"
      "  --quiet      suppress the stdout tables (JSON output only)\n");
}

void list_scenarios(const std::vector<const experiments::ScenarioSpec*>& specs) {
  std::printf("%-36s %6s %8s  %s\n", "id", "runs", "seed", "tags");
  std::printf("%-36s %6s %8s  %s\n", "--", "----", "----", "----");
  for (const auto* s : specs) {
    std::string tags;
    for (const auto& t : s->tags) {
      if (!tags.empty()) tags += ",";
      tags += t;
    }
    std::printf("%-36s %6zu %8llu  %s\n", s->id.c_str(), s->default_runs,
                static_cast<unsigned long long>(s->base_seed), tags.c_str());
    std::printf("    %s\n", s->title.c_str());
  }
  std::printf("\n%zu scenarios registered\n", specs.size());
}

int write_json(const std::string& path, const std::vector<std::string>& objects) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fairbench: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  if (objects.size() == 1) {
    // Byte-compatible with the files the standalone exp* binaries wrote.
    std::fwrite(objects[0].data(), 1, objects[0].size(), f);
    std::fputc('\n', f);
  } else {
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      std::fwrite(objects[i].data(), 1, objects[i].size(), f);
      if (i + 1 < objects.size()) std::fputc(',', f);
      std::fputc('\n', f);
    }
    std::fputs("]\n", f);
  }
  std::fclose(f);
  std::printf("json report written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  for (const std::string& extra : args.passthrough) {
    if (extra == "--help" || extra == "-h") {
      print_usage();
      return 0;
    }
  }
  for (const std::string& extra : args.passthrough) {
    std::fprintf(stderr, "fairbench: unrecognized argument '%s' (see --help)\n",
                 extra.c_str());
  }
  if (!args.passthrough.empty()) return 2;

  experiments::Registry& reg = experiments::Registry::instance();
  if (args.list) {
    list_scenarios(reg.all());
    return 0;
  }

  const auto selected = reg.match(args.filter);
  if (selected.empty()) {
    std::fprintf(stderr, "fairbench: no scenario matches '%s'; registered ids:\n",
                 args.filter.c_str());
    for (const auto* s : reg.all()) std::fprintf(stderr, "  %s\n", s->id.c_str());
    return 2;
  }
  if (!args.baseline_path.empty() && args.json_path.empty()) {
    std::fprintf(stderr, "fairbench: --baseline requires --json <path>\n");
    return 2;
  }

  service::install_stop_handlers();

  std::vector<std::string> objects;
  int deviations = 0;
  bool interrupted = false;
  for (const experiments::ScenarioSpec* spec : selected) {
    if (service::stop_requested()) {
      // Graceful drain: the scenarios already run are reported in full; the
      // rest are skipped, never half-measured.
      interrupted = true;
      break;
    }
    const service::ScenarioRunResult res = service::run_scenario(*spec, args);
    deviations += res.deviations;
    if (!args.json_path.empty()) objects.push_back(res.json);
  }

  if (interrupted) {
    std::fprintf(stderr,
                 "fairbench: interrupted — %zu of %zu scenario(s) completed, "
                 "flushing report\n",
                 objects.empty() ? std::size_t{0} : objects.size(),
                 selected.size());
  }
  if (selected.size() > 1 && !args.quiet) {
    std::printf("\n=== fairbench: %zu scenarios, %d deviation%s total ===\n",
                selected.size(), deviations, deviations == 1 ? "" : "s");
  }
  if (!args.json_path.empty() && !objects.empty()) {
    if (const int rc = write_json(args.json_path, objects); rc != 0) return rc;
  }
  if (!args.baseline_path.empty() && !interrupted) {
    const std::string cmd =
        "python3 scripts/bench_diff.py " + args.baseline_path + " " + args.json_path;
    std::printf("\n$ %s\n", cmd.c_str());
    // When stdout is a pipe our report is still sitting in the stdio buffer;
    // flush so the child's diff doesn't interleave mid-table.
    std::fflush(stdout);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) return 1;
  }
  return 0;
}
