// E08 — Appendix B.1: optimal fairness and utility-balanced fairness are
// incomparable.
//
//   * Π′ (Π½GMW for odd n, ΠOptnSFE for even n) is utility-balanced for
//     every n but NOT optimally fair: against odd n a ⌈n/2⌉-coalition earns
//     γ10 > ((n−1)γ10+γ11)/n.
//   * The Lemma 18 protocol is optimally fair (its best attacker still gets
//     only ((n−1)γ10+γ11)/n) but NOT utility-balanced: the single-corruption
//     deviator earns γ10/n + (n−1)/n·(γ10+γ11)/2, pushing the per-t sum past
//     the bound.
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

  // ---------------- Π′ with odd n: balanced but not optimal ----------------
  {
    const std::size_t n = 5;
    rep.note("--- Pi' (mixed protocol), n = %zu (odd => Pi-1/2-GMW branch) ---\n", n);
    rep.row_header();
    const auto coalition = rpd::estimate_utility(mixed_best_attack(n, (n + 1) / 2), gamma, rep.opts(801));
    char buf[80];
    std::snprintf(buf, sizeof(buf), "g10 = %.3f > optimum %.3f", gamma.g10,
                  gamma.nparty_opt_bound(n));
    rep.row("ceil(n/2)-coalition", coalition, buf);
    rep.check(coalition.utility > gamma.nparty_opt_bound(n) + 0.05,
              "Pi' (odd n) is beaten past the optimal-fairness bound");

    const auto profile = rpd::balance_profile(
        n,
        [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kMixed, n, t); },
        gamma, rep.opts(810));
    rep.note("per-t sum = %.4f, balanced bound = %.4f\n\n", profile.sum(),
             gamma.balance_bound(n));
    rep.check(rpd::is_utility_balanced(profile, gamma),
              "Pi' (odd n) remains utility-balanced");
  }

  // ------------- Lemma 18 protocol: optimal but not balanced -------------
  {
    const std::size_t n = 4;
    rep.note("--- Lemma 18 protocol, n = %zu ---\n", n);
    rep.row_header();
    const auto big = rpd::estimate_utility(lemma18_lock_abort(n, n - 1), gamma, rep.opts(820));
    char buf[80];
    std::snprintf(buf, sizeof(buf), "optimum ((n-1)g10+g11)/n = %.3f",
                  gamma.nparty_opt_bound(n));
    rep.row("(n-1)-coalition", big, buf);
    rep.check(std::abs(big.utility - gamma.nparty_opt_bound(n)) < big.margin() + 0.03,
              "Lemma 18 protocol stays at the optimal-fairness bound");

    const auto dev = rpd::estimate_utility(lemma18_deviator(n), gamma, rep.opts(830));
    const double expect =
        gamma.g10 / n + (static_cast<double>(n - 1) / n) * (gamma.g10 + gamma.g11) / 2;
    std::snprintf(buf, sizeof(buf), "g10/n + (n-1)/n*(g10+g11)/2 = %.3f", expect);
    rep.row("1-party deviator", dev, buf);
    rep.check(std::abs(dev.utility - expect) < dev.margin() + 0.03,
              "deviator utility matches the Lemma 18 formula");

    const auto profile = rpd::balance_profile(
        n,
        [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kLemma18, n, t); },
        gamma, rep.opts(840));
    rep.note("per-t sum = %.4f, balanced bound = %.4f\n\n", profile.sum(),
             gamma.balance_bound(n));
    rep.check(!rpd::is_utility_balanced(profile, gamma),
              "Lemma 18 protocol is NOT utility-balanced");
  }
}

}  // namespace

void register_exp08(Registry& r) {
  ScenarioSpec s;
  s.id = "exp08_optimal_vs_balanced";
  s.title = "E08: Appendix B.1 — optimal vs utility-balanced separation";
  s.claim =
      "Claim: Pi' is balanced but not optimal; the Lemma 18 protocol is\n"
      "optimal but not balanced.";
  s.protocol = "Pi' (mixed) / Lemma 18 protocol";
  s.attack = "coalitions, 1-party deviator";
  s.tags = {"smoke", "multi-party", "balance", "separation"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 2000;
  s.base_seed = 801;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.nparty_opt_bound(5); };
  s.bound_note = "((n-1)g10+g11)/n at n=5";
  s.attacks = {{"ceil(n/2)-coalition vs Pi'", mixed_best_attack(5, 3)},
               {"1-party deviator vs Lemma 18", lemma18_deviator(4)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
