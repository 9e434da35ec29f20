// E06 — Lemma 14 / Lemma 16: utility-balanced fairness.
//
// Σ_{t=1}^{n-1} u(best t-adversary vs ΠOptnSFE) ≤ (n−1)(γ10+γ11)/2, and the
// bound is tight (Lemma 16's coalition pairs achieve it). The harness prints
// the per-t profile φ(t) and its sum against the bound, for several n.
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

  for (const std::size_t n : {3u, 4u, 5u, 6u}) {
    const auto profile = rpd::balance_profile(
        n,
        [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kOptN, n, t); },
        gamma, rep.opts(seed));
    seed += 100;

    rep.note("--- n = %zu ---\n", n);
    rep.note("%-6s %-20s %10s   %s\n", "t", "best strategy", "phi(t)", "paper phi(t)");
    for (std::size_t t = 1; t < n; ++t) {
      rep.note("%-6zu %-20s %10.4f   %.4f\n", t,
               profile.best_per_t[t - 1].name.c_str(), profile.phi(t),
               gamma.nparty_bound(t, n));
    }
    rep.note("sum = %.4f   bound (n-1)(g10+g11)/2 = %.4f   margin = %.4f\n\n",
             profile.sum(), gamma.balance_bound(n), profile.sum_margin());
    rep.check(rpd::is_utility_balanced(profile, gamma),
              "n=" + std::to_string(n) + ": OptNSFE is utility-balanced");
    rep.check(profile.sum() >= gamma.balance_bound(n) - profile.sum_margin() - 0.1,
              "n=" + std::to_string(n) + ": the balance bound is tight (Lemma 16)");
  }
}

}  // namespace

void register_exp06(Registry& r) {
  ScenarioSpec s;
  s.id = "exp06_utility_balance";
  s.title = "E06: Lemma 14/16 — utility-balanced fairness of OptNSFE";
  s.claim = "Claim: sum_t phi(t) = (n-1)(g10+g11)/2, the minimal possible sum.";
  s.protocol = "OptNSFE";
  s.attack = "per-t best of the n-party attack family";
  s.tags = {"smoke", "multi-party", "optn", "balance"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 1500;
  s.base_seed = 600;
  s.bound = [](const rpd::PayoffVector& g, double) { return (g.g10 + g.g11) / 2.0; };
  s.bound_note = "sum_t phi(t) = (n-1)(g10+g11)/2";
  s.attacks = nparty_attack_family(NPartyProtocol::kOptN, 4, 2);
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
