#include "rpd/estimator.h"

#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>

#include "experiments/registry.h"
#include "util/bitmat.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fairsfe::rpd {

bool valid_lanes(std::size_t lanes) {
  return lanes == 1 || lanes == util::kLaneWidth;
}

sim::ExecutionResult execute(RunSetup&& setup, Rng&& rng) {
  sim::Engine engine(std::move(setup.parties), std::move(setup.functionality),
                     std::move(setup.adversary), std::move(rng), setup.engine);
  return engine.run();
}

namespace {

// Fixed shard width, independent of the thread count: shard s always covers
// runs [s*kShardRuns, (s+1)*kShardRuns). Accumulators are produced per shard
// and merged in shard order, so the floating-point summation tree — and hence
// the returned estimate — does not depend on how shards map to threads. The
// width deliberately equals the bit-sliced lane width: one shard is exactly
// one word-sliced batch, so both strategies share the shard machinery.
constexpr std::size_t kShardRuns = 64;
static_assert(kShardRuns == util::kLaneWidth,
              "shards must align with the bit-sliced lane width");

struct ShardAccumulator {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::array<std::size_t, 4> counts{};
  std::size_t capped = 0;
  std::size_t first_capped = std::numeric_limits<std::size_t>::max();
  sim::fault::FaultStats fault_stats;

  [[nodiscard]] std::size_t valid() const {
    return counts[0] + counts[1] + counts[2] + counts[3];
  }
};

}  // namespace

UtilityEstimate estimate_utility(const EstimationTarget& target, const PayoffModel& model,
                                 const EstimatorOptions& opts) {
  FAIRSFE_CHECK(valid_lanes(opts.lanes),
                "EstimatorOptions::lanes must be 1 or the machine lane width");
  // The sliced path runs honest protocol code directly, so a fault-plan
  // override (which perturbs the engine's delivery) forces the real engine.
  const bool use_sliced =
      opts.lanes == util::kLaneWidth && target.sliced != nullptr && !opts.fault;
  FAIRSFE_CHECK(use_sliced || target.factory != nullptr,
                "estimate_utility: no scalar factory for the scalar path");
  if (use_sliced) {
    FAIRSFE_CHECK(target.sliced_parties >= 2,
                  "EstimationTarget::sliced_parties required for classification");
  }

  const std::size_t runs = opts.runs;
  UtilityEstimate est;
  est.runs = runs;
  est.requested_runs = runs;
  est.lanes = use_sliced ? util::kLaneWidth : 1;
  if (runs == 0) return est;
  est.run_events.resize(runs);

  const std::size_t n_shards = (runs + kShardRuns - 1) / kShardRuns;
  std::vector<ShardAccumulator> shards(n_shards);

  // Fill shards[s] from runs [s*64, min(runs, (s+1)*64)). Safe to call
  // concurrently for distinct s: each invocation touches only its own shard
  // accumulator and its own slice of run_events.
  const auto compute_shard = [&](std::size_t s) {
    const std::size_t lo = s * kShardRuns;
    const std::size_t hi = std::min(runs, lo + kShardRuns);
    ShardAccumulator& acc = shards[s];
    if (use_sliced) {
      std::array<sim::ExecutionResult, kShardRuns> results;
      target.sliced(lo, hi - lo, opts.seed,
                    std::span<sim::ExecutionResult>(results.data(), hi - lo));
      for (std::size_t i = lo; i < hi; ++i) {
        const sim::ExecutionResult& result = results[i - lo];
        const bool j_bit = all_honest_nonbot(result, target.sliced_parties);
        const Outcome o = outcome_of(result, target.sliced_parties, j_bit);
        const FairnessEvent e = classify(o);
        est.run_events[i] = e;
        acc.fault_stats += result.fault_stats;
        if (result.hit_round_cap) {
          acc.capped += 1;
          acc.first_capped = std::min(acc.first_capped, i);
          continue;
        }
        acc.counts[static_cast<std::size_t>(e)]++;
        // The sliced path runs honest protocol code with the default
        // predicates, so the RunOutcome carries no annotations: score sees
        // the bare (event, outcome) pair. For a VectorModel this is exactly
        // the pre-model payoff.of(e).
        RunOutcome ro;
        ro.event = e;
        ro.outcome = o;
        const double pay = model.score(ro);
        acc.sum += pay;
        acc.sum_sq += pay * pay;
      }
      return;
    }
    // Cheap per-shard master: run i's stream is a pure function of (seed, i).
    const Rng master(opts.seed);
    for (std::size_t i = lo; i < hi; ++i) {
      Rng run_rng = master.fork_at("run", i);
      Rng setup_rng = run_rng.fork("setup");
      RunSetup setup = target.factory(setup_rng);
      // Offline slice binding by run index — before the engine starts, and a
      // pure function of i, so thread scheduling cannot perturb which slice
      // of the preprocessed batch a run consumes.
      if (setup.bind_run) setup.bind_run(i);
      if (opts.fault) setup.engine.fault = *opts.fault;
      if (opts.round_timeout >= 0) setup.engine.round_timeout = opts.round_timeout;
      const std::size_t n = setup.parties.size();
      auto j_predicate = setup.honest_got_output;
      auto i_predicate = setup.adversary_learned;
      auto annotate = setup.annotate;
      sim::ExecutionResult result = execute(std::move(setup), run_rng.fork("engine"));

      const bool j_bit = j_predicate ? j_predicate(result) : all_honest_nonbot(result, n);
      Outcome o = outcome_of(result, n, j_bit);
      if (i_predicate) o.adversary_learned = i_predicate(result);
      const FairnessEvent e = classify(o);
      est.run_events[i] = e;
      acc.fault_stats += result.fault_stats;
      if (result.hit_round_cap) {
        // Hard per-run error: the protocol never reached a verdict. Keep the
        // classification trace aligned but exclude the run from the average.
        acc.capped += 1;
        acc.first_capped = std::min(acc.first_capped, i);
        continue;
      }
      acc.counts[static_cast<std::size_t>(e)]++;
      RunOutcome ro;
      ro.event = e;
      ro.outcome = o;
      if (annotate) annotate(result, ro);
      const double pay = model.score(ro);
      acc.sum += pay;
      acc.sum_sq += pay * pay;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t used_shards = n_shards;
  bool stopped = false;
  if (opts.target_ci > 0.0) {
    // Sequential stopping: compute shards in waves of one per worker, then
    // merge the wave's shards IN INDEX ORDER against the cumulative moments
    // and test the stopping rule after each shard. The rule fires at a shard
    // boundary determined only by (seed, target_ci) — shards past the stop
    // point (computed speculatively by the rest of the wave) are discarded —
    // so the stop point and the estimate are invariant under `threads`.
    const std::size_t wave =
        std::max<std::size_t>(1, util::ThreadPool::resolve(opts.threads));
    double csum = 0.0;
    double csum_sq = 0.0;
    std::size_t cvalid = 0;
    std::size_t next = 0;
    while (next < n_shards && !stopped) {
      const std::size_t batch = std::min(wave, n_shards - next);
      util::parallel_for(batch, opts.threads,
                         [&](std::size_t k) { compute_shard(next + k); });
      for (std::size_t k = 0; k < batch && !stopped; ++k) {
        const std::size_t s = next + k;
        const ShardAccumulator& acc = shards[s];
        csum += acc.sum;
        csum_sq += acc.sum_sq;
        cvalid += acc.valid();
        used_shards = s + 1;
        if (opts.progress) {
          opts.progress(std::min(runs, used_shards * kShardRuns), runs);
        }
        // Require at least two shards and two valid runs so a degenerate
        // first batch (e.g. all-identical payoffs) cannot stop at once.
        if (s >= 1 && cvalid > 1) {
          const auto v = static_cast<double>(cvalid);
          const double mean = csum / v;
          const double var = (csum_sq - v * mean * mean) / (v - 1.0);
          const double se = std::sqrt(std::max(0.0, var) / v);
          if (1.96 * se <= opts.target_ci) stopped = true;
        }
      }
      next += batch;
    }
  } else {
    std::mutex progress_mu;
    std::size_t progress_done = 0;
    util::parallel_for(n_shards, opts.threads, [&](std::size_t s) {
      compute_shard(s);
      if (opts.progress) {
        const std::size_t lo = s * kShardRuns;
        const std::size_t hi = std::min(runs, lo + kShardRuns);
        std::unique_lock<std::mutex> lock(progress_mu);
        progress_done += hi - lo;
        opts.progress(progress_done, runs);
      }
    });
  }
  est.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  est.stopped_early = stopped && used_shards < n_shards;
  est.runs = std::min(runs, used_shards * kShardRuns);
  est.run_events.resize(est.runs);
  if (est.stopped_early && opts.progress) {
    // Progress contract: the final call always has done == total, even when
    // stopping halted before the requested run count (sinks keyed on
    // done == total must terminate, not hang at the stopped fraction).
    opts.progress(est.runs, est.runs);
  }

  double sum = 0.0;
  double sum_sq = 0.0;
  std::array<std::size_t, 4> counts{};
  std::size_t first_capped = std::numeric_limits<std::size_t>::max();
  for (std::size_t s = 0; s < used_shards; ++s) {  // merge in index order
    const ShardAccumulator& acc = shards[s];
    sum += acc.sum;
    sum_sq += acc.sum_sq;
    for (std::size_t k = 0; k < 4; ++k) counts[k] += acc.counts[k];
    est.round_cap_hits += acc.capped;
    first_capped = std::min(first_capped, acc.first_capped);
    est.fault_stats += acc.fault_stats;
  }
  est.valid_runs = est.runs - est.round_cap_hits;
  est.first_round_cap_run = est.round_cap_hits > 0 ? first_capped : est.runs;

  const auto valid = static_cast<double>(est.valid_runs);
  if (est.valid_runs > 0) {
    const double mean = sum / valid;
    est.utility = mean;
    if (est.valid_runs > 1) {
      const double var = (sum_sq - valid * mean * mean) / (valid - 1.0);
      est.std_error = std::sqrt(std::max(0.0, var) / valid);
    }
    for (std::size_t k = 0; k < 4; ++k) {
      est.event_freq[k] = static_cast<double>(counts[k]) / valid;
    }
  }
  return est;
}

UtilityEstimate estimate_utility(const EstimationTarget& target,
                                 const PayoffVector& payoff,
                                 const EstimatorOptions& opts) {
  return estimate_utility(target, VectorModel(payoff), opts);
}

UtilityEstimate estimate_utility(const SetupFactory& factory, const PayoffVector& payoff,
                                 const EstimatorOptions& opts) {
  EstimationTarget target;
  target.factory = factory;
  return estimate_utility(target, VectorModel(payoff), opts);
}

UtilityEstimate estimate_utility(const experiments::ScenarioSpec& scenario,
                                 const EstimatorOptions& opts) {
  EstimatorOptions o = opts;
  if (!o.fault && scenario.fault) o.fault = *scenario.fault;
  EstimationTarget target;
  target.factory = scenario.attacks.front().factory;
  target.sliced = scenario.sliced;
  target.sliced_parties = scenario.sliced_parties;
  if (scenario.model) return estimate_utility(target, *scenario.model, o);
  return estimate_utility(target, VectorModel(scenario.gamma), o);
}

}  // namespace fairsfe::rpd
