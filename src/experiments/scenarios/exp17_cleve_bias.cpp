// E17 (extension) — Cleve's impossibility, measured.
//
// The paper opens with Cleve [STOC'86]: no two-party coin-flipping protocol
// with guaranteed output can keep the bias negligible against a dishonest
// party; an r-round protocol is biasable by Ω(1/r). The harness runs the
// commit-and-open majority protocol for growing round counts under two
// rushing abort attacks and prints the bias series — large at r = 1 (the
// classic 1/4), decaying with r, never reaching zero. This is the
// quantitative backdrop against which the paper's utility-based relaxation
// of fairness is defined.
#include <cmath>
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "fair/coinflip.h"
#include "sim/engine.h"

namespace fairsfe::experiments {
namespace {

double target_rate(std::size_t rounds, bool eager, std::size_t runs, std::uint64_t seed0) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    Rng rng(seed0 + i);
    auto parties = fair::make_coinflip_parties(rounds, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(2 * rounds + 8);
    sim::Engine e(std::move(parties), nullptr,
                  std::make_unique<fair::CoinBiasAdversary>(0, true, eager),
                  rng.fork("engine"), cfg);
    const auto r = e.run();
    if (r.outputs[1] && (*r.outputs[1])[0] == 1) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(runs);
}

// Estimator-compatible form of the biasing attack, so the registry's generic
// consumers (tests, fairbench smoke passes) can drive this scenario too.
rpd::SetupFactory coinflip_bias_attack(std::size_t rounds, bool eager) {
  return [rounds, eager](Rng& rng) {
    rpd::RunSetup s;
    s.parties = fair::make_coinflip_parties(rounds, rng);
    s.adversary = std::make_unique<fair::CoinBiasAdversary>(0, true, eager);
    s.engine.max_rounds = static_cast<int>(2 * rounds + 8);
    return s;
  };
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const std::size_t runs = rep.runs();

  rep.note("runs/point = %zu, adversary corrupts p1, target = 1\n\n", runs);
  rep.note("%-8s %14s %14s %18s\n", "flips r", "eager bias", "tally bias",
           "1/(4*sqrt(r)) ref");
  std::uint64_t seed = ctx.spec.base_seed;
  double prev_tally = 1.0;
  double bias1 = 0.0;
  double bias_last = 0.0;
  for (const std::size_t r : {1u, 3u, 5u, 9u, 17u, 33u}) {
    const double eager = target_rate(r, true, runs, seed) - 0.5;
    seed += runs;
    const double tally = target_rate(r, false, runs, seed) - 0.5;
    seed += runs;
    rep.note("%-8zu %14.4f %14.4f %18.4f\n", r, eager, tally,
             0.25 / std::sqrt(static_cast<double>(r)));
    if (r == 1) bias1 = tally;
    bias_last = tally;
    rep.check(tally <= prev_tally + 0.02,
              "bias non-increasing at r = " + std::to_string(r));
    prev_tally = tally;
  }

  rep.note("\n");
  rep.check(std::abs(bias1 - 0.25) < 0.03, "single-flip bias is the classic 1/4");
  rep.check(bias_last > 0.01,
            "bias never vanishes (Cleve's impossibility, Omega(1/r))");

  rep.note("\nContext: this is the impossibility that motivates the whole paper —\n"
           "since no protocol can eliminate the attacker's advantage, the right\n"
           "question is the comparative one: WHICH protocol minimizes it. The\n"
           "utility-based answer for general SFE is (g10+g11)/2 (E02/E03).\n");
}

}  // namespace

void register_exp17(Registry& r) {
  ScenarioSpec s;
  s.id = "exp17_cleve_bias";
  s.title = "E17 (extension): Cleve's coin-flipping bias [10]";
  s.claim =
      "Claim: an aborting rushing party biases the r-flip majority\n"
      "protocol by 1/4 at r = 1, with decay ~1/sqrt(r) and no vanishing.";
  s.protocol = "commit-and-open majority coin flip";
  s.attack = "rushing abort (eager / tally)";
  s.tags = {"smoke", "two-party", "coinflip", "extension"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 4000;
  s.base_seed = 1700;
  // x = r (flip count): Cleve's Omega(1/r) reference curve.
  s.bound = [](const rpd::PayoffVector&, double x) {
    return x > 0.0 ? 0.25 / std::sqrt(x) : 0.25;
  };
  s.bound_note = "bias reference 1/(4*sqrt(r))";
  s.attacks = {{"eager abort, r=5", coinflip_bias_attack(5, true)},
               {"tally abort, r=5", coinflip_bias_attack(5, false)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
