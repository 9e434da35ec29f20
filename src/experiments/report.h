// Shared CLI parsing and reporting for every experiment driver: the single
// `fairbench` scenario runner, fairbenchd, the perf_* microbenchmarks' main,
// and the test suite's schema checks.
//
// bench::Reporter renders the historical fixed-width table on stdout — for
// each configuration the measured utility (with its 3-sigma margin), the
// empirical event distribution, and the paper's closed-form bound, then a
// PASS/DEVIATION verdict on the shape claim — and renders the same data as
// one JSON object (json_object()), which fairbench writes to `--json <path>`
// and fairbenchd sends over its socket.
//
// CLI accepted by every harness (see bench::parse_args):
//   fairbench [--list] [--filter <glob>] [runs] [--runs N] [--threads N]
//             [--json out.json] [--preproc <mode>]
//             [--lanes {1,64}] [--target-ci <halfwidth>] [--seed S] [--quiet]
// where [runs] / --runs overrides the Monte-Carlo runs per point, --threads
// feeds rpd::EstimatorOptions::threads (0 = one per hardware thread), --json
// selects the machine-readable sink, and --preproc selects the
// correlated-randomness phase split (inline | offline_ideal | offline_ot;
// see mpc/preproc/mode.h). The mode flows into every EstimatorOptions the
// Reporter hands out, and fairbench amortizes one offline batch per scenario
// that declares a PreprocBudget. --lanes 64 selects the bit-sliced execution
// path for scenarios that register one (others fall back to the scalar
// engine, bit-identically), and --target-ci enables CI-driven sequential
// stopping at the given 95% half-width (rpd::EstimatorOptions::target_ci).
//
// JSON schema (stable; fairbench emits one object per scenario, an array
// when several scenarios run):
//   {
//     "experiment": str, "claim": str, "gamma": str|null,
//     "runs_per_point": int, "threads": int,
//     "rows": [{"name": str, "utility": num, "std_error": num, "margin": num,
//               "event_freq": [num, num, num, num],   // E00, E01, E10, E11
//               "runs": int, "wall_seconds": num, "runs_per_sec": num,
//               "lanes": int,          // 1 scalar, 64 bit-sliced
//               "valid_runs": int,     // runs minus round-cap exclusions
//               "stopped_at": int,     // runs performed (< requested when
//                                      //   sequential stopping halted early)
//               "ci_halfwidth": num,   // 1.96 * std_error
//               "paper": str}],
//     "checks": [{"ok": bool, "what": str}],
//     "deviations": int
//   }
// plus, when a preprocessing mode other than inline is active (or an offline
// batch was recorded), a "preproc" section:
//     "preproc": {"mode": str,
//                 "offline": [{"provider": str, "triples": int,
//                              "seconds": num}]}
// The section is conditional so the schema — and every historical
// report — stays byte-stable under the defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mpc/preproc/mode.h"
#include "rpd/estimator.h"

namespace fairsfe::experiments {
struct ScenarioSpec;
}  // namespace fairsfe::experiments

namespace fairsfe::bench {

/// The common experiment-harness CLI, parsed once. Flags every harness
/// shares: positional [runs] (or --runs N), --threads N, --json <path>.
/// Driver-level flags (--list, --filter) are carried along for
/// fairbench; anything unrecognized lands in `passthrough` so wrapper
/// binaries (perf_*) can forward google-benchmark flags.
struct Args {
  std::size_t runs = 0;  ///< valid only when runs_set
  bool runs_set = false;
  std::size_t threads = 1;
  std::string json_path;
  bool list = false;
  std::string filter;  ///< scenario glob for fairbench --filter
  /// --preproc <mode>: correlated-randomness phase split for every scenario.
  mpc::preproc::PreprocMode preproc = mpc::preproc::PreprocMode::kInline;
  /// --lanes {1,64}: execution lane width (rpd::EstimatorOptions::lanes).
  std::size_t lanes = 1;
  /// --target-ci <halfwidth>: sequential-stopping 95% CI half-width; 0 = off.
  double target_ci = 0.0;
  /// --seed S: replay the whole scenario under one master seed — overrides
  /// the seed of EVERY EstimatorOptions the Reporter hands out (scenario
  /// bodies hard-code per-point seeds; this replaces them all uniformly).
  /// This is how a fairbenchd request's "seed" field and a one-shot
  /// `fairbench --seed S` are guaranteed to measure the same thing.
  std::optional<std::uint64_t> seed;
  /// --quiet: suppress the stdout table (fairbenchd serves the JSON object
  /// over the socket; its stdout is a log, not a report channel).
  bool quiet = false;
  std::vector<std::string> passthrough;  ///< unrecognized argv entries

  [[nodiscard]] std::size_t runs_or(std::size_t default_runs) const {
    return runs_set ? runs : default_runs;
  }
};

/// Strict unsigned decimal: digits only (no sign, no blanks), no overflow.
/// The one number parser for every CLI flag (fairbench and fairbenchd).
std::optional<std::uint64_t> parse_u64(const char* v);

/// Parses the shared harness CLI out of argv. Unknown flags are collected and
/// a non-numeric positional is passed through; callers decide whether those
/// are errors. A malformed value prints a message and exits with status 2:
/// runs (--runs or positional) outside [1, rpd::kMaxRuns], --threads outside
/// [0, rpd::kMaxThreads], a --seed that is not an integer below 2^64, a
/// negative or non-numeric --target-ci, --lanes other than 1 or
/// util::kLaneWidth, and --preproc without one of its three mode words.
Args parse_args(int argc, char** argv);

/// Paper-vs-measured table writer; one instance per scenario run.
class Reporter {
 public:
  /// `default_runs` applies unless `args` overrides the run count. fairbench
  /// parses argv once and shares the result across every selected scenario.
  Reporter(const Args& args, std::size_t default_runs);

  [[nodiscard]] std::size_t runs() const { return runs_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] mpc::preproc::PreprocMode preproc() const { return preproc_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] double target_ci() const { return target_ci_; }

  /// EstimatorOptions for one utility point: the harness's runs/threads/
  /// preproc/lanes/target-ci settings plus the call site's seed. Callers
  /// needing a different run count adjust the returned struct.
  [[nodiscard]] rpd::EstimatorOptions opts(std::uint64_t seed) const {
    rpd::EstimatorOptions o;
    // A harness-level --seed replays the whole scenario under one master
    // seed, overriding every per-point seed the body hard-codes (Args::seed).
    o.runs = runs_;
    o.seed = seed_override_.value_or(seed);
    o.threads = threads_;
    o.preproc = preproc_;
    o.lanes = lanes_;
    o.target_ci = target_ci_;
    return o;
  }

  /// The scenario's effective batch/base seed: the --seed override when one
  /// is set, otherwise `fallback` (normally the spec's base_seed).
  [[nodiscard]] std::uint64_t base_seed_or(std::uint64_t fallback) const {
    return seed_override_.value_or(fallback);
  }

  /// Streaming sink invoked after each row() with (row_index, name) — the
  /// fairbenchd progress channel. Unset by default (no overhead).
  void set_row_sink(std::function<void(std::size_t, const std::string&)> sink) {
    row_sink_ = std::move(sink);
  }

  /// Record (and print) the cost of one offline correlated-randomness batch.
  /// Scenario bodies and the fairbench driver call this once per batch; the
  /// entries land in the JSON "preproc" section so offline and online cost
  /// are reported separately.
  void offline_batch(const std::string& provider, std::size_t triples,
                     double seconds);

  void title(const std::string& id, const std::string& claim);

  /// Consume a ScenarioSpec directly: prints the spec's title/claim header,
  /// so the table provably describes the registered configuration.
  void begin(const experiments::ScenarioSpec& spec);

  void gamma(const rpd::PayoffVector& g);
  void row_header();
  void row(const std::string& name, const rpd::UtilityEstimate& est,
           const std::string& paper);
  void check(bool ok, const std::string& what);

  /// Prints the verdict summary. Always returns 0: deviations are recorded
  /// in the output, never break the bench loop.
  int finish();

  [[nodiscard]] int deviations() const { return failures_; }

  /// This scenario's report as one JSON object (the schema above). fairbench
  /// concatenates these into the multi-scenario array.
  [[nodiscard]] std::string json_object() const;

 private:
  struct Row {
    std::string name;
    double utility, std_error, margin;
    std::array<double, 4> event_freq;
    std::size_t runs;
    double wall_seconds, runs_per_sec;
    std::size_t lanes, valid_runs, stopped_at;
    double ci_halfwidth;
    std::string paper;
  };
  struct Check {
    bool ok;
    std::string what;
  };
  struct OfflineBatch {
    std::string provider;
    std::size_t triples;
    double seconds;
  };

  static std::string json_escape(const std::string& s);

  std::size_t runs_;
  std::size_t threads_ = 1;
  mpc::preproc::PreprocMode preproc_ = mpc::preproc::PreprocMode::kInline;
  std::size_t lanes_ = 1;
  double target_ci_ = 0.0;
  std::optional<std::uint64_t> seed_override_;
  bool quiet_ = false;
  std::function<void(std::size_t, const std::string&)> row_sink_;
  std::vector<OfflineBatch> offline_;
  std::string experiment_, claim_, gamma_;
  std::vector<Row> rows_;
  std::vector<Check> checks_;
  int failures_ = 0;
};

}  // namespace fairsfe::bench
