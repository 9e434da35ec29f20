// E01 — Section 1, the motivating example: Π₂ is "twice as fair" as Π₁.
//
// Paper claim: the best attacker against Π₁ always earns γ10 (corrupt the
// second opener, take the contract, abort); against Π₂ the Blum coin toss
// halves the window, so the best attacker earns (γ10 + γ11)/2. Hence
// Π₂ ≻γ Π₁ in the relative-fairness partial order (Definition 1).
#include <cmath>
#include <cstdio>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;

  rep.gamma(gamma);
  rep.row_header();

  const auto pi1 = rpd::assess_protocol(
      two_party_attack_family([](sim::PartyId c) {
        return contract_attack(fair::ContractVariant::kPi1, c);
      }),
      gamma, rep.opts(1));
  for (const auto& a : pi1.attacks) {
    rep.row("Pi1 / " + a.name, a.estimate, "sup = 1.000 (g10)");
  }

  const auto pi2 = assess_protocol(ctx.spec, rep.opts(10));
  for (const auto& a : pi2.attacks) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "sup = %.3f ((g10+g11)/2)",
                  ctx.spec.bound(gamma, 0.0));
    rep.row("Pi2 / " + a.name, a.estimate, buf);
  }

  rep.note("\nsup_A u(Pi1, A) = %.4f   sup_A u(Pi2, A) = %.4f\n\n", pi1.best_utility(),
           pi2.best_utility());

  rep.check(std::abs(pi1.best_utility() - gamma.g10) < 0.02,
            "Pi1 best attack reaches g10 (full unfairness)");
  rep.check(std::abs(pi2.best_utility() - ctx.spec.bound(gamma, 0.0)) <
            pi2.best_margin() + 0.02,
            "Pi2 best attack is (g10+g11)/2 (half the window)");
  rep.check(rpd::at_least_as_fair(pi2, pi1) && !rpd::at_least_as_fair(pi1, pi2),
            "Pi2 strictly precedes Pi1 in the fairness partial order");
}

}  // namespace

void register_exp01(Registry& r) {
  ScenarioSpec s;
  s.id = "exp01_contract_fairness";
  s.title = "E01: contract signing, Pi1 vs Pi2 (paper Section 1)";
  s.claim =
      "Claim: sup_A u(Pi1, A) = g10; sup_A u(Pi2, A) = (g10+g11)/2 — "
      "Pi2 is strictly fairer.";
  s.protocol = "contract signing Pi1 / Pi2";
  s.attack = "two-party lock-abort family";
  s.tags = {"smoke", "two-party", "contract"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 4000;
  s.base_seed = 1;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.two_party_opt_bound(); };
  s.bound_note = "(g10+g11)/2";
  s.attacks = two_party_attack_family(
      [](sim::PartyId c) { return contract_attack(fair::ContractVariant::kPi2, c); });
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
