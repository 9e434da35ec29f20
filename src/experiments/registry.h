// The declarative scenario layer: the paper's result matrix — protocol ×
// adversary strategy × payoff vector Γ × closed-form bound — expressed as
// data instead of one binary per experiment.
//
// A ScenarioSpec is a value describing one experiment: its registry id,
// title/claim strings, the protocol and attack families under test, the
// default payoff vector, Monte-Carlo defaults (runs / base seed), an
// optional fault plan, the paper's closed-form bound as a callback, a
// canonical rpd::NamedAttack family (what the estimator actually measures),
// and the table-rendering body. The process-wide Registry is populated by
// experiments::setups.cpp (register_builtin_scenarios) from the scenario
// translation units in src/experiments/scenarios/, and is consumed by
//   * bench/fairbench — the single driver CLI (--list / --filter / --runs /
//     --threads / --json / --baseline) replacing the 18 exp* binaries,
//   * rpd::estimate_utility / rpd::assess_protocol ScenarioSpec overloads,
//     so tests and benches provably measure identical configurations,
//   * tests/test_registry.cpp — per-scenario smoke, determinism, and JSON
//     schema checks.
//
// Adding experiment E19 is a ~30-line registration in a new scenarios/ file
// plus one line in scenarios/scenarios.h and setups.cpp — no new binary, no
// argv parsing, no Reporter wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpc/preproc/mode.h"
#include "rpd/fairness_relation.h"
#include "sim/fault/plan.h"

namespace fairsfe::bench {
class Reporter;
}  // namespace fairsfe::bench

namespace fairsfe::mpc::preproc {
class CorrelatedRandomness;
}  // namespace fairsfe::mpc::preproc

namespace fairsfe::experiments {

struct ScenarioSpec;

/// What one Monte-Carlo run of a scenario consumes from an offline
/// CorrelatedRandomness batch. Declared on the ScenarioSpec so the driver
/// (fairbench --preproc) can mass-produce ONE batch sized
/// runs × triples_per_run and amortize it across every run and thread of the
/// scenario, instead of each run paying its own offline phase.
struct PreprocBudget {
  std::size_t parties = 2;
  std::size_t triples_per_run = 0;  ///< Beaver triples (= AND gates) per run
  std::size_t rots_per_run = 0;     ///< ROT pairs per ordered pair per run
};

/// Everything a scenario body needs: the spec it was registered with (for
/// bounds/γ/defaults — bodies must not hard-code what the spec declares) and
/// the Reporter rendering this run.
struct ScenarioContext {
  const ScenarioSpec& spec;
  bench::Reporter& rep;
  /// Requested preprocessing mode (fairbench --preproc; default inline).
  mpc::preproc::PreprocMode preproc = mpc::preproc::PreprocMode::kInline;
  /// The driver-amortized offline batch for spec.preproc (null under kInline
  /// or when the spec declares no budget — bodies needing more material
  /// generate their own with preproc::generate_batch).
  std::shared_ptr<const mpc::preproc::CorrelatedRandomness> batch{};
  /// Wall-clock cost of generating `batch` (0 when batch is null).
  double offline_seconds = 0.0;
};

/// One experiment of the paper's result matrix, as data.
struct ScenarioSpec {
  std::string id;     ///< registry id, e.g. "exp05_nparty_bounds"
  std::string title;  ///< table header, e.g. "E05: Lemma 11/13 — ..."
  std::string claim;  ///< the paper claim the verdict refers to
  std::string protocol;  ///< protocol family under test ("Opt2SFE", ...)
  std::string attack;    ///< adversary / attack family ("lock-abort", ...)
  /// Filter tags (--filter matches id substrings, ids, and tags): "smoke"
  /// marks scenarios cheap enough for the CI sweep; protocol/topic tags
  /// ("opt2", "two-party", "nparty", "gk", ...) group related experiments.
  std::vector<std::string> tags;
  /// The scenario's canonical payoff vector (bodies may sweep others).
  rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  /// Optional payoff model override. When set, the estimate_utility /
  /// assess_protocol ScenarioSpec overloads score runs through
  /// model->score(RunOutcome) instead of a VectorModel over `gamma`
  /// (collateral-extended scenarios like exp22 set this; `gamma` stays the
  /// anchoring vector for bounds and table headers — keep the two
  /// consistent: model->gamma() should equal `gamma`).
  std::shared_ptr<const rpd::PayoffModel> model;
  std::size_t default_runs = 1000;  ///< Monte-Carlo runs/point default
  std::uint64_t base_seed = 0;      ///< first seed the body draws from
  /// Default fault plan (exp18-style scenarios); estimator overloads apply
  /// it when the caller's EstimatorOptions carries none.
  std::optional<sim::fault::FaultPlan> fault;
  /// Per-run correlated-randomness consumption. Set for GMW-backed scenarios
  /// so `fairbench --preproc offline_*` can pre-generate one amortized batch
  /// (see ScenarioContext::batch); scenarios without it run inline-only.
  std::optional<PreprocBudget> preproc;
  /// The paper's closed-form bound u(γ, x), where x is the scenario's sweep
  /// parameter (drop rate p for exp18, corruption budget t/n encodings, ...;
  /// pass 0 when the bound is parameter-free). Test and bench share this one
  /// formula.
  std::function<double(const rpd::PayoffVector&, double)> bound;
  std::string bound_note;  ///< human form, e.g. "(g10+g11)/2 + p(g00-g11)/2"
  /// Canonical named-attack family: what `rpd::assess_protocol(spec, ...)`
  /// sweeps, and what the registry smoke test estimates. Non-empty for every
  /// registered scenario.
  std::vector<rpd::NamedAttack> attacks;
  /// Optional bit-sliced fast path over the canonical attack's run-index
  /// space (DESIGN.md §11). Only honest-execution scenarios whose per-run
  /// results are bit-identical to attacks.front() may set this; the
  /// ScenarioSpec estimate_utility overload forwards it so
  /// `fairbench --lanes 64` advances 64 runs per machine word.
  rpd::SlicedBatchFn sliced;
  /// Party count for classifying sliced results (required with `sliced`).
  std::size_t sliced_parties = 0;
  /// Full paper-vs-measured table body (the former exp* main()).
  std::function<void(ScenarioContext&)> run;

  /// The registered Monte-Carlo defaults as estimator options.
  [[nodiscard]] rpd::EstimatorOptions default_options() const {
    rpd::EstimatorOptions o;
    o.runs = default_runs;
    o.seed = base_seed;
    if (fault) o.fault = *fault;
    return o;
  }
  [[nodiscard]] bool has_tag(const std::string& tag) const;
};

/// Process-wide scenario table. Thread-compatible: fully populated on first
/// access, immutable afterwards except through add() (which callers must
/// serialize themselves — in practice registration happens before main()
/// spawns anything).
class Registry {
 public:
  /// The singleton, populated with the built-in exp01..exp18 scenarios.
  static Registry& instance();

  /// Register a scenario. Duplicate ids and empty attack families are
  /// programming errors and abort.
  void add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(const std::string& id) const;
  /// All scenarios, sorted by id.
  [[nodiscard]] std::vector<const ScenarioSpec*> all() const;
  /// Scenarios selected by a filter expression: a glob (*, ?) matched
  /// against the id and each tag, with bare substrings of the id also
  /// accepted ("opt2" selects every id containing "opt2" plus every
  /// scenario tagged opt2). Empty filter selects everything.
  [[nodiscard]] std::vector<const ScenarioSpec*> match(const std::string& filter) const;

  /// fnmatch-style glob: '*' any run, '?' any one char, else literal.
  static bool glob_match(const std::string& pattern, const std::string& text);

 private:
  Registry() = default;
  std::vector<ScenarioSpec> specs_;
};

/// Defined in setups.cpp: installs the built-in scenario table (the
/// translation units under src/experiments/scenarios/).
void register_builtin_scenarios(Registry& r);

}  // namespace fairsfe::experiments
