// E09 — Theorem 6 / Lemma 22: utility-balanced fairness as optimal fairness
// with corruption costs.
//
// With cost c(t) = φ(t) − s(t) (φ = the protocol's per-t best utility, s =
// the dummy protocol's ideal benchmark, which is γ11 for Γ+fair), a φ-fair
// protocol becomes *ideally* γ^C-fair: its net utility never exceeds the
// ideal benchmark. Theorem 6(2): the cost function of a utility-balanced
// protocol cannot be strictly dominated by any other achievable one.
#include <cmath>
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "rpd/cost.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  const std::size_t n = 4;
  rep.gamma(gamma);

  // Measure s(t): the dummy protocol's best per-t utility.
  const auto dummy_profile = rpd::balance_profile(
      n,
      [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kDummy, n, t); },
      gamma, rep.opts(900));
  // Measure φ(t) for the balanced protocol and for Π½GMW.
  const auto opt_profile = rpd::balance_profile(
      n,
      [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kOptN, n, t); },
      gamma, rep.opts(910));
  const auto gmw_profile = rpd::balance_profile(
      n,
      [n](std::size_t t) { return nparty_attack_family(NPartyProtocol::kHalfGmw, n, t); },
      gamma, rep.opts(920));

  const auto c_opt = rpd::cost_from_profile(opt_profile, gamma);
  const auto c_gmw = rpd::cost_from_profile(gmw_profile, gamma);

  rep.note("%-4s %12s %12s %12s %12s %12s\n", "t", "s(t) dummy", "phi_opt(t)",
           "c_opt(t)", "phi_gmw(t)", "c_gmw(t)");
  for (std::size_t t = 1; t < n; ++t) {
    rep.note("%-4zu %12.4f %12.4f %12.4f %12.4f %12.4f\n", t, dummy_profile.phi(t),
             opt_profile.phi(t), c_opt.of(t), gmw_profile.phi(t), c_gmw.of(t));
    // Measured s(t) should equal the analytic ideal benchmark.
    rep.check(std::abs(dummy_profile.phi(t) - rpd::ideal_payoff(gamma, t, n)) < 0.03,
              "s(" + std::to_string(t) + ") matches max(g00, g11)");
    // Ideal γ^C-fairness: net utility = φ(t) − c(t) = s(t).
    rep.check(std::abs(rpd::net_utility(opt_profile.phi(t), c_opt, t) -
              dummy_profile.phi(t)) < 0.05,
              "net utility at t=" + std::to_string(t) + " meets the ideal benchmark");
  }

  rep.note("\ncost sums: opt = %.4f, gmw-half = %.4f (balanced sum is minimal)\n",
           [&] { double s = 0; for (std::size_t t = 1; t < n; ++t) s += c_opt.of(t); return s; }(),
           [&] { double s = 0; for (std::size_t t = 1; t < n; ++t) s += c_gmw.of(t); return s; }());

  // Theorem 6(2): neither cost function strictly dominates the other, and the
  // balanced protocol's cost sum is no larger.
  rep.check(!rpd::strictly_dominates(c_gmw, c_opt, 0.05),
            "Pi-1/2-GMW's cost does not strictly dominate the balanced cost");
  double sum_opt = 0, sum_gmw = 0;
  for (std::size_t t = 1; t < n; ++t) {
    sum_opt += c_opt.of(t);
    sum_gmw += c_gmw.of(t);
  }
  rep.check(sum_opt <= sum_gmw + 0.15,
            "the balanced protocol minimizes the total corruption cost");
}

}  // namespace

void register_exp09(Registry& r) {
  ScenarioSpec s;
  s.id = "exp09_corruption_cost";
  s.title = "E09: Theorem 6 — corruption costs and ideal gamma^C-fairness";
  s.claim =
      "Claim: with c(t) = phi(t) - s(t), the balanced protocol is ideally\n"
      "gamma^C-fair, and its cost function is undominated.";
  s.protocol = "OptNSFE / Pi-1/2-GMW / dummy (cost benchmark)";
  s.attack = "per-t best of the n-party attack family";
  s.tags = {"smoke", "multi-party", "cost"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 1500;
  s.base_seed = 900;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.g11; };
  s.bound_note = "ideal benchmark s(t) = max(g00, g11)";
  s.attacks = nparty_attack_family(NPartyProtocol::kOptN, 4, 2);
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
