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
//   fairbench [--list] [--filter <glob>] [runs] [--json out.json] [--quiet]
//             [--runs N] [--seed S] [--threads N] [--lanes {1,64}]
//             [--target-ci <halfwidth>]
// The last five flags are the run-request fields that fairbenchd "estimate"
// requests carry under the same names; request_fields() below is the one
// table of their bounds and messages. [runs] is --runs; --json selects the
// machine-readable sink. --lanes 64 runs the bit-sliced path where a
// scenario registers one (others fall back to the scalar engine,
// bit-identically).
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
// plus, when the scenario body recorded an offline correlated-randomness
// batch (E19, E20), a "preproc" section:
//     "preproc": {"offline": [{"provider": str, "triples": int,
//                              "seconds": num}]}
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

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
};

/// A run-request value decoded from argv text or a JSON value, unchecked.
using FieldValue = std::variant<std::uint64_t, double>;

/// One run-request field, as both front ends see it: fairbench and
/// fairbenchd decode their own syntax into a FieldValue and apply it here.
struct RequestField {
  enum class Kind { kU64, kNumber };  ///< the FieldValue alternative
  std::string_view key;   ///< fairbenchd JSON key, e.g. "target_ci"
  std::string_view flag;  ///< fairbench flag, e.g. "--target-ci"
  Kind kind;
  std::string want;  ///< rejection message, "must be ...", after flag or key
  bool (*check)(const FieldValue&);       ///< sees only values of `kind`
  void (*set)(Args&, const FieldValue&);  ///< sees only checked values
};

/// The table: runs, seed, threads, lanes and target_ci, each with
/// its bound and message, in the order both surfaces apply them.
const std::vector<RequestField>& request_fields();

/// The field whose JSON key is `key`, or nullptr.
const RequestField* find_field(std::string_view key);

/// Stores `value` into `args` if it passes field.check; otherwise returns
/// field.want. A nullopt `value` (the surface could not decode a value of
/// field.kind) is rejected the same way.
std::optional<std::string> apply_field(const RequestField& field,
                                       const std::optional<FieldValue>& value,
                                       Args& args);

/// Decodes argv `text` as a value of `field` and applies it to `args`; on
/// rejection prints "<prog>: <flag> <want>, got '<text>'" and exits 2.
void apply_flag(const char* prog, std::string_view flag, const RequestField& field,
                const char* text, Args& args);

/// `text` as an integer in [0, max], or the same message and exit 2 as
/// apply_flag (fairbenchd --port).
std::uint64_t parse_bounded(const char* prog, std::string_view flag, const char* text,
                            std::uint64_t max);

/// Parses the shared harness CLI out of argv. Unknown flags are collected and
/// a non-numeric positional is passed through; callers decide whether those
/// are errors. A request_fields() flag or positional run count goes through
/// apply_flag.
Args parse_args(int argc, char** argv);

/// Escape a string for embedding in a JSON document (quotes not included);
/// protocol events use it as service::json_escape.
std::string json_escape(std::string_view s);

/// Paper-vs-measured table writer; one instance per scenario run.
class Reporter {
 public:
  /// `default_runs` applies unless `args` overrides the run count. fairbench
  /// parses argv once and shares the result across every selected scenario.
  Reporter(const Args& args, std::size_t default_runs);

  [[nodiscard]] std::size_t runs() const { return runs_; }

  /// EstimatorOptions for one utility point: the harness's runs/threads/
  /// lanes/target-ci settings plus the call site's seed. Callers
  /// needing a different run count adjust the returned struct.
  [[nodiscard]] rpd::EstimatorOptions opts(std::uint64_t seed) const {
    rpd::EstimatorOptions o;
    // A harness-level --seed replays the whole scenario under one master
    // seed, overriding every per-point seed the body hard-codes (Args::seed).
    o.runs = runs_;
    o.seed = args_.seed.value_or(seed);
    o.threads = args_.threads;
    o.lanes = args_.lanes;
    o.target_ci = args_.target_ci;
    return o;
  }

  /// Streaming sink invoked after each row() with (row_index, name) — the
  /// fairbenchd progress channel. Unset by default (no overhead).
  void set_row_sink(std::function<void(std::size_t, const std::string&)> sink) {
    row_sink_ = std::move(sink);
  }

  /// Record (and print) the cost of one offline correlated-randomness batch.
  /// Scenario bodies call this once per batch they build; the entries land
  /// in the JSON "preproc" section so offline and online cost are reported
  /// separately.
  void offline_batch(const std::string& provider, std::size_t triples,
                     double seconds);

  void title(const std::string& id, const std::string& claim);

  /// Consume a ScenarioSpec directly: prints the spec's title/claim header,
  /// so the table provably describes the registered configuration.
  void begin(const experiments::ScenarioSpec& spec);

  /// Free-form scenario prose around the table (printf format); silent
  /// under --quiet like every other line the reporter prints.
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

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

  Args args_;
  std::size_t runs_;
  std::function<void(std::size_t, const std::string&)> row_sink_;
  std::vector<OfflineBatch> offline_;
  std::string experiment_, claim_, gamma_;
  std::vector<Row> rows_;
  std::vector<Check> checks_;
  int failures_ = 0;
};

}  // namespace fairsfe::bench
