// E07 — Lemma 17: the honest-majority protocol Π½GMW is fully fair below
// n/2 corruptions and fully unfair at and above — the utility staircase
//     u(t) = γ11 for t < n/2,   u(t) = γ10 for t ≥ n/2,
// which makes it NOT utility-balanced for even n (it "gives up completely"
// at n/2), while for odd n its per-t sum meets the balanced bound exactly.
#include <cmath>
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "rpd/balance.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  std::uint64_t seed = ctx.spec.base_seed;

  for (const std::size_t n : {4u, 5u, 6u, 7u, 8u}) {
    rep.note("--- n = %zu (threshold %zu) ---\n", n, fair::half_gmw_threshold(n));
    rep.row_header();
    double sum = 0.0;
    double sum_margin = 0.0;
    for (std::size_t t = 1; t < n; ++t) {
      const auto est = rpd::estimate_utility(half_gmw_coalition(n, t), gamma, rep.opts(seed++));
      const double paper = (t >= (n + 1) / 2) ? gamma.g10
                           : (2 * t >= n)     ? gamma.g10
                                              : gamma.g11;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s = %.3f", (paper == gamma.g10 ? "g10" : "g11"),
                    paper);
      rep.row("coalition t=" + std::to_string(t), est, buf);
      rep.check(std::abs(est.utility - paper) < est.margin() + 0.02,
                "n=" + std::to_string(n) + " t=" + std::to_string(t) +
                " sits on the staircase");
      sum += est.utility;
      sum_margin += est.margin();
    }
    const double bound = gamma.balance_bound(n);
    rep.note("sum = %.4f   balanced bound = %.4f   -> %s\n\n", sum, bound,
             sum <= bound + sum_margin ? "balanced" : "NOT balanced");
    if (n % 2 == 0) {
      rep.check(sum > bound + 0.1,
                "n=" + std::to_string(n) + " (even): sum exceeds the balanced bound");
    } else {
      rep.check(std::abs(sum - bound) < sum_margin + 0.1,
                "n=" + std::to_string(n) + " (odd): sum meets the balanced bound");
    }
  }
}

}  // namespace

void register_exp07(Registry& r) {
  ScenarioSpec s;
  s.id = "exp07_gmw_half_unbalanced";
  s.title = "E07: Lemma 17 — the Pi-1/2-GMW utility staircase";
  s.claim =
      "Claim: u = g11 below n/2 corruptions, g10 at or above; not\n"
      "utility-balanced for even n, exactly balanced for odd n.";
  s.protocol = "Pi-1/2-GMW";
  s.attack = "t-coalition lock-abort";
  s.tags = {"smoke", "multi-party", "gmw", "balance"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 1200;
  s.base_seed = 700;
  // x = t/n: the staircase jumps from g11 to g10 at x = 1/2.
  s.bound = [](const rpd::PayoffVector& g, double x) { return 2.0 * x >= 1.0 ? g.g10 : g.g11; };
  s.bound_note = "staircase g11 -> g10 at t = n/2";
  s.attacks = {{"coalition n=6 t=3", half_gmw_coalition(6, 3)},
               {"coalition n=6 t=2", half_gmw_coalition(6, 2)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
