// E20 — bit-sliced transposed execution (DESIGN.md §11): packing 64
// Monte-Carlo runs into the lanes of a machine word and advancing all of
// them with one walk over the compiled circuit plan changes throughput only.
// Estimates — utilities, standard errors, event frequencies, and the per-run
// event trace — stay bit-identical to the scalar engine, under the inline OT
// algebra and under Beaver triples from the preprocessing store alike, and
// crash-divergent runs are masked out of the lane set without perturbing
// their 63 lane-mates.
//
// The scenario also exercises CI-driven sequential stopping
// (EstimatorOptions::target_ci): the estimator halts at the first lane-width
// batch whose cumulative 95% CI half-width meets the target, at a stop point
// that is a pure function of (seed, target) — invariant under the thread
// count — so adaptive run counts stay inside the determinism contract.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "circuit/builder.h"
#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "mpc/preproc/provider.h"

namespace fairsfe::experiments {
namespace {

using mpc::preproc::PreprocMode;

// Deterministic crash schedule: every 8th run crashes one party right before
// an AND layer (cycling over the whole depth, including the output
// exchange). The run mix then contains both full runs (E01) and all-⊥ runs
// (E00), giving the payoff variance the stopping rule needs to be
// non-trivial — an all-honest scenario would stop after two batches with a
// zero standard error.
mpc::CrashScheduleFn crash_schedule(std::size_t layers) {
  return [layers](std::size_t i) -> std::optional<mpc::CrashPlan> {
    if (i % 8 != 0) return std::nullopt;
    return mpc::CrashPlan{.party = (i / 8) % 2, .layer = (i / 8) % (layers + 1)};
  };
}

bool bit_identical(const rpd::UtilityEstimate& a, const rpd::UtilityEstimate& b) {
  return a.utility == b.utility && a.std_error == b.std_error &&
         a.event_freq == b.event_freq && a.run_events == b.run_events;
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const mpc::GmwConfig probe = mpc::GmwConfig::public_output(mill);
  const std::size_t layers = probe.plan->num_and_layers();
  const mpc::CrashScheduleFn crashes = crash_schedule(layers);
  const std::uint64_t seed = ctx.spec.base_seed;

  auto config_for = [&](PreprocMode mode) {
    mpc::GmwConfigBuilder b = mpc::GmwConfig::for_circuit(mill);
    if (mpc::preproc::is_offline(mode)) {
      mpc::preproc::PreprocRequest req;
      req.parties = 2;
      req.triples = rep.runs() * probe.triples_per_run();
      Rng rng(ctx.spec.base_seed);
      const auto t0 = std::chrono::steady_clock::now();
      auto batch = mpc::preproc::generate_batch(mode, req, rng);
      const auto t1 = std::chrono::steady_clock::now();
      rep.offline_batch(std::string(mpc::preproc::to_string(mode)), req.triples,
                        std::chrono::duration<double>(t1 - t0).count());
      b.with_preproc(mode, std::move(batch));
    }
    return b.build_shared();
  };

  // The schedule crashes exactly the runs with index ≡ 0 (mod 8), so the
  // utility is a deterministic mixture — an exact reference, not a bound.
  auto expected_utility = [&](std::size_t runs) {
    const auto crashed = static_cast<double>((runs + 7) / 8);
    const auto total = static_cast<double>(runs);
    return (crashed * gamma.g00 + (total - crashed) * gamma.g01) / total;
  };

  rep.row_header();

  // The scalar-vs-sliced pairs below run every requested run at both widths.
  rpd::EstimatorOptions scalar_opts = rep.opts(seed);
  scalar_opts.lanes = 1;
  scalar_opts.target_ci = 0.0;
  rpd::EstimatorOptions sliced_opts = scalar_opts;
  sliced_opts.lanes = 64;

  // Inline OT algebra: scalar engine vs 64 runs per word, same seed.
  {
    const GmwHonestPair pair = gmw_honest_pair(config_for(PreprocMode::kInline), crashes);
    const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
    const auto scalar = rpd::estimate_utility(target, gamma, scalar_opts);
    const auto sliced = rpd::estimate_utility(target, gamma, sliced_opts);
    rep.row("mill-8 crash/8 [scalar]", scalar, "engine, one run at a time");
    rep.row("mill-8 crash/8 [sliced]", sliced, "64 runs/word, identical");
    rep.check(bit_identical(scalar, sliced),
              "inline: sliced estimate bit-identical to the scalar engine");
    rep.check(scalar.lanes == 1 && sliced.lanes == 64,
              "lane width recorded in the estimates");
    rep.check(std::abs(scalar.utility - expected_utility(scalar.runs)) < 1e-9,
              "crash schedule yields the exact deterministic event mixture");
  }

  // Beaver path: the sliced AND layers spend 64 preprocessed triples per
  // word-op from the same store slices the scalar tapes would read.
  {
    const GmwHonestPair pair =
        gmw_honest_pair(config_for(PreprocMode::kOfflineIdeal), crashes);
    const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
    const auto scalar = rpd::estimate_utility(target, gamma, scalar_opts);
    const auto sliced = rpd::estimate_utility(target, gamma, sliced_opts);
    rep.row("mill-8 beaver [scalar]", scalar, "offline_ideal store");
    rep.row("mill-8 beaver [sliced]", sliced, "64 triples per word-op");
    rep.check(bit_identical(scalar, sliced),
              "beaver: sliced estimate bit-identical to the scalar engine");
  }

  // Sequential stopping: halt at the target CI half-width, deterministically.
  {
    const GmwHonestPair pair = gmw_honest_pair(config_for(PreprocMode::kInline), crashes);
    const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
    const double target_ci = 0.05;
    rpd::EstimatorOptions o = sliced_opts;
    o.target_ci = target_ci;
    rpd::EstimatorOptions o2 = o;
    o2.threads = o.threads == 2 ? 4 : 2;
    const auto stop = rpd::estimate_utility(target, gamma, o);
    const auto stop2 = rpd::estimate_utility(target, gamma, o2);
    rep.row("mill-8 stop@0.05 [sliced]", stop, "halts at 95% CI half-width");
    rep.check(stop.runs <= stop.requested_runs,
              "stopping never exceeds the requested run count");
    rep.check(!stop.stopped_early || stop.ci_halfwidth() <= target_ci,
              "an early stop certifies the 95% CI half-width target");
    rep.check(stop.utility == stop2.utility && stop.std_error == stop2.std_error &&
                  stop.runs == stop2.runs && stop.stopped_early == stop2.stopped_early,
              "stop point and estimate invariant under the thread count");
    if (stop.stopped_early) {
      rep.note("  stopped after %zu of %zu runs (ci_halfwidth %.5f <= %.5f)\n",
               stop.runs, stop.requested_runs, stop.ci_halfwidth(), target_ci);
    }
  }

  rep.note(
      "\nNote: lane l of every wire word carries run l's bit, so one word op\n"
      "advances 64 executions; per-run rng streams are forked exactly as the\n"
      "scalar engine forks them, which is why agreement is exact. See\n"
      "DESIGN.md §11 for the lane layout and the stopping-rule determinism\n"
      "argument.\n");
}

}  // namespace

void register_exp20(Registry& r) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg =
      std::make_shared<const mpc::GmwConfig>(mpc::GmwConfig::public_output(mill));
  const GmwHonestPair pair =
      gmw_honest_pair(cfg, crash_schedule(cfg->plan->num_and_layers()));

  ScenarioSpec s;
  s.id = "exp20_bitslice";
  s.title = "E20: bit-sliced execution — 64 Monte-Carlo runs per machine word";
  s.claim =
      "Claim: transposed bit-sliced GMW execution and CI-driven sequential\n"
      "stopping change throughput only — estimates stay bit-identical.";
  s.protocol = "GMW (scalar engine / bit-sliced words)";
  s.attack = "honest runs + deterministic crash schedule";
  s.tags = {"smoke", "gmw", "bitslice", "perf", "mpc"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 256;
  s.base_seed = 2000;
  // One run in eight ends all-⊥ (E00), the rest complete honestly (E01).
  s.bound = [](const rpd::PayoffVector& g, double) {
    return g.g01 + (g.g00 - g.g01) / 8.0;
  };
  s.bound_note = "g01 + (g00 - g01)/8 (one crash in eight runs)";
  s.attacks = {{"honest + crash/8 [scalar]", pair.factory}};
  s.sliced = pair.sliced;
  s.sliced_parties = pair.parties;
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
