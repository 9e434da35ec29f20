// Monte-Carlo estimation of the attacker's utility u_A(Π, A).
//
// The paper defines u_A(Π, A) as the ideal-world expected payoff of the best
// simulator for A under the least favorable environment. For the
// constructive adversaries analysed in the paper (and implemented in
// src/adversary), the simulator's event is determined by two observable
// predicates of the real execution (see DESIGN.md §4); the estimator repeats
// the execution with fresh randomness, classifies each run into E_ij, and
// returns the empirical payoff with its standard error.
//
// Estimation is parallel and scheduling-independent: run i's randomness is
// derived as Rng(seed).fork_at("run", i), a pure function of (seed, i), and
// runs are accumulated in fixed-size index shards merged in index order, so
// the returned estimate is bit-identical for every `threads` setting
// (including the per-run event classifications in `run_events`).
//
// Two execution strategies share that contract: the scalar engine (one
// simulated execution per run) and the bit-sliced path (64 runs advanced per
// machine word through EstimationTarget::sliced; DESIGN.md §11). CI-driven
// sequential stopping (EstimatorOptions::target_ci) halts either path at a
// deterministic, thread-invariant lane-width batch boundary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rpd/events.h"
#include "rpd/payoff.h"
#include "rpd/payoff_model.h"
#include "sim/engine.h"

namespace fairsfe::rpd {

/// Everything needed to execute one protocol run and classify it.
struct RunSetup {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  std::unique_ptr<sim::IFunctionality> functionality;  // may be null
  std::unique_ptr<sim::IAdversary> adversary;          // may be null
  sim::ExecutionOptions engine;
  /// j-bit of the event: did honest parties learn their (correct) output?
  /// Defaults to all_honest_nonbot if unset. The factory captures the run's
  /// inputs, so the predicate can check actual correctness.
  std::function<bool(const sim::ExecutionResult&)> honest_got_output;
  /// i-bit override: did the adversary learn the actual output? Defaults to
  /// the adversary's own report. Experiments with ground truth (e.g. the GK
  /// runs, where the attacker cannot tell a fake from the real value) compare
  /// result.adversary_output against the recorded y instead.
  std::function<bool(const sim::ExecutionResult&)> adversary_learned;
  /// RunOutcome annotation hook: invoked once per run after classification
  /// with the finished execution and the already-classified RunOutcome, so
  /// protocol families can surface model-specific facts (escrow collateral
  /// flags, ground-truth notes) to PayoffModel::score without widening the
  /// event predicates. Null for every vector-scored setup — the estimator
  /// then scores the bare (event, outcome) pair. Install via
  /// OutcomeMapping::install (payoff_model.h) rather than by hand.
  std::function<void(const sim::ExecutionResult&, RunOutcome&)> annotate;
  /// Offline-phase slice binding: when set, the estimator invokes
  /// bind_run(i) right after the factory builds run i's setup, before the
  /// engine starts. Protocols consuming a shared CorrelatedRandomness batch
  /// use this (mpc::make_gmw_run_binder) to point each party's tape at run
  /// i's slice — a pure function of the run index, so the assignment is
  /// identical across thread counts. Leave empty for inline protocols.
  std::function<void(std::size_t run_index)> bind_run;
};

/// A factory producing a fresh RunSetup from per-run randomness. Factories
/// are invoked concurrently from estimator worker threads and must be
/// re-entrant: build fresh objects per call and do not mutate captured state.
/// (Every factory in src/experiments satisfies this by construction.)
using SetupFactory = std::function<RunSetup(Rng&)>;

/// Bit-sliced batch executor (DESIGN.md §11): evaluate runs [lo, lo+count)
/// against master `seed` — run lo+l's randomness derived exactly as the
/// scalar path's Rng(seed).fork_at("run", lo+l) — and write run lo+l's
/// ExecutionResult to out[l]. `count` never exceeds one machine word of
/// lanes (64). Implementations must be const-callable from concurrent
/// estimator workers and bit-identical to the scalar engine per run index
/// (mpc::SlicedGmwRunner::run_batch is the canonical one).
using SlicedBatchFn = std::function<void(std::size_t lo, std::size_t count,
                                         std::uint64_t seed,
                                         std::span<sim::ExecutionResult> out)>;

/// What to estimate: the scalar per-run factory plus, optionally, a sliced
/// batch executor over the same run-index space. When `sliced` is set and the
/// options ask for lanes = 64 (and no fault-plan override forces the real
/// engine), the estimator advances 64 runs per machine word; otherwise it
/// falls back to the scalar factory. Both paths classify runs with the
/// default predicates, so a target with a sliced hook must be an
/// honest-execution setup whose events are determined by the run outputs.
struct EstimationTarget {
  SetupFactory factory;              ///< scalar path (may be null if sliced-only)
  SlicedBatchFn sliced;              ///< optional bit-sliced fast path
  std::size_t sliced_parties = 0;    ///< party count for sliced classification
};

/// How to run an estimation: a plain aggregate. Callers copy one and assign
/// the fields they vary (`auto o = rep.opts(seed); o.lanes = 64;`).
struct EstimatorOptions {
  std::size_t runs = 1000;  ///< Monte-Carlo executions
  std::uint64_t seed = 0;   ///< master seed; run i is a pure function of (seed, i)
  /// Worker threads: 1 = run inline on the caller's thread, 0 = one per
  /// hardware thread, N = exactly N. Results are bit-identical for every
  /// setting.
  std::size_t threads = 1;
  /// Fault-plan override: when set, it replaces each run's
  /// `setup.engine.fault` after the factory builds it, so one factory can be
  /// swept across fault severities (exp18) without rebuilding setups.
  std::optional<sim::fault::FaultPlan> fault{};
  /// Lane width: 1 = scalar engine per run (the default), 64 = bit-sliced
  /// execution (one machine word advances 64 runs) when the target provides a
  /// sliced hook. Any other value is a contract violation. Lanes NEVER change
  /// the estimate: sliced and scalar are bit-identical per run index, so this
  /// only selects the execution strategy.
  std::size_t lanes = 1;
  /// Sequential stopping (CI-driven): when > 0, stop after the first
  /// lane-width batch whose cumulative 95% CI half-width (1.96 standard
  /// errors, >= 2 batches, >= 2 valid runs) is <= target_ci, instead of
  /// always performing `runs` executions. The stop point is a pure function
  /// of (seed, target_ci): batches are merged in index order and batches
  /// beyond the stop point are discarded, so the estimate is bit-identical
  /// for every `threads` setting. 0 disables stopping.
  double target_ci = 0.0;
};

/// The lane widths EstimatorOptions::lanes accepts: 1 or util::kLaneWidth.
/// The run-request table (bench::request_fields, experiments/report.h)
/// rejects any other user-given lane count before it reaches the estimator.
[[nodiscard]] bool valid_lanes(std::size_t lanes);

/// Upper bounds on the run and thread counts a user may request (CLI flag,
/// daemon request field), checked at the same entry points as valid_lanes so
/// a hostile value is an error rather than an unbounded allocation or thread
/// count. Every registered scenario's default run count is far below
/// kMaxRuns.
inline constexpr std::size_t kMaxRuns = std::size_t{1} << 20;
inline constexpr std::size_t kMaxThreads = 256;

struct UtilityEstimate {
  double utility = 0.0;       ///< empirical mean payoff (over valid runs)
  double std_error = 0.0;     ///< standard error of the mean
  std::array<double, 4> event_freq{};  ///< empirical Pr[E_ij] over valid runs
  /// Executions performed (= run_events.size()). Equal to requested_runs
  /// unless sequential stopping halted early.
  std::size_t runs = 0;
  /// Executions requested (EstimatorOptions::runs).
  std::size_t requested_runs = 0;
  /// True iff sequential stopping (target_ci) halted before requested_runs.
  bool stopped_early = false;
  /// Lane width the estimation actually used: 1 (scalar) or 64 (sliced).
  std::size_t lanes = 1;
  /// Executions that terminated on their own. A run that hits
  /// ExecutionOptions::max_rounds is a hard per-run error — the protocol
  /// never reached a verdict — so it is excluded from utility / std_error /
  /// event_freq instead of silently folding its truncated state into the
  /// average.
  std::size_t valid_runs = 0;
  std::size_t round_cap_hits = 0;  ///< runs excluded for hitting max_rounds
  /// Lowest run index that hit the cap (== runs when none did). Reproduce it
  /// directly: the offending execution's randomness is
  /// Rng(opts.seed).fork_at("run", first_round_cap_run).
  std::size_t first_round_cap_run = 0;
  /// Per-run event classification, index = run index (deterministic in the
  /// seed, independent of `threads`). Capped runs are still classified here
  /// so the trace stays index-aligned.
  std::vector<FairnessEvent> run_events;
  /// Fault-injection counters summed over all runs (all zero when no
  /// FaultPlan is active).
  sim::fault::FaultStats fault_stats;
  /// Wall-clock duration of the estimation (metadata; not deterministic).
  double wall_seconds = 0.0;

  [[nodiscard]] double freq(FairnessEvent e) const {
    return event_freq[static_cast<std::size_t>(e)];
  }
  /// True iff every run terminated before the round cap.
  [[nodiscard]] bool clean() const { return round_cap_hits == 0; }
  /// Conservative high-probability half-width (3 standard errors).
  [[nodiscard]] double margin() const { return 3.0 * std_error; }
  /// 95% CI half-width (1.96 standard errors) — the sequential-stopping gauge.
  [[nodiscard]] double ci_halfwidth() const { return 1.96 * std_error; }
  /// Monte-Carlo throughput of this estimation.
  [[nodiscard]] double runs_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(runs) / wall_seconds : 0.0;
  }
};

/// The estimation core: estimate u_A(Π, A) over opts.runs independent
/// executions seeded from opts.seed, sharded across opts.threads workers,
/// scoring every run through model.score(RunOutcome) — the scalar engine and
/// the bit-sliced fast path (EstimationTarget::sliced + lanes = 64) both
/// funnel through this one scoring call. CI-driven sequential stopping via
/// EstimatorOptions::target_ci.
UtilityEstimate estimate_utility(const EstimationTarget& target, const PayoffModel& model,
                                 const EstimatorOptions& opts);

/// Legacy-vector convenience: scores through a VectorModel wrapping `payoff`,
/// which returns exactly payoff.of(event) — bit-identical to the pre-model
/// estimator for every committed golden.
UtilityEstimate estimate_utility(const SetupFactory& factory, const PayoffVector& payoff,
                                 const EstimatorOptions& opts);

/// Same, with an optional bit-sliced fast path and CI-driven sequential
/// stopping (see EstimationTarget and EstimatorOptions::lanes / target_ci).
UtilityEstimate estimate_utility(const EstimationTarget& target,
                                 const PayoffVector& payoff,
                                 const EstimatorOptions& opts);

/// Run a single execution from a setup (used by tests needing transcripts).
/// Takes the setup and rng by rvalue reference: execution consumes the
/// parties, functionality, adversary, and rng state, so the caller must
/// std::move both in and must not reuse them afterwards.
sim::ExecutionResult execute(RunSetup&& setup, Rng&& rng);

}  // namespace fairsfe::rpd
