// E02 — Theorem 3: u_A(ΠOpt2SFE, A) ≤ (γ10 + γ11)/2 for every adversary A
// and every γ ∈ Γfair. The harness throws the full strategy family at the
// protocol under several payoff vectors; no strategy may exceed the bound.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"

namespace fairsfe::experiments {
namespace {

std::vector<rpd::NamedAttack> opt2_attack_family() {
  return {
      {"lock-abort(p1)", opt2_lock_abort(0)},
      {"lock-abort(p2)", opt2_lock_abort(1)},
      {"Agen (random corrupt)", opt2_agen()},
      {"abort-phase1", opt2_abort_phase1()},
      {"passive", opt2_passive()},
      {"no-corruption", opt2_no_corruption()},
      {"corrupt-all", opt2_corrupt_all()},
  };
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;

  const std::vector<std::pair<std::string, rpd::PayoffVector>> gammas = {
      {"standard (0.25,0,1,0.5)", rpd::PayoffVector::standard()},
      {"partial-fairness (0,0,1,0)", rpd::PayoffVector::partial_fairness()},
      {"flat (0.5,0,1,0.5)", {0.5, 0.0, 1.0, 0.5}},
      {"scaled (0,0,2,1)", {0.0, 0.0, 2.0, 1.0}},
  };

  const std::vector<rpd::NamedAttack> attacks = opt2_attack_family();

  std::uint64_t seed = ctx.spec.base_seed;
  for (const auto& [gname, gamma] : gammas) {
    rep.note("--- gamma class: %s, bound (g10+g11)/2 = %.3f ---\n", gname.c_str(),
             ctx.spec.bound(gamma, 0.0));
    rep.gamma(gamma);
    rep.row_header();
    double best = -1e9;
    for (const auto& a : attacks) {
      const auto est = rpd::estimate_utility(a.factory, gamma, rep.opts(seed++));
      char buf[48];
      std::snprintf(buf, sizeof(buf), "<= %.3f", ctx.spec.bound(gamma, 0.0));
      rep.row(a.name, est, buf);
      best = std::max(best, est.utility - est.margin());
      rep.check(est.utility <= ctx.spec.bound(gamma, 0.0) + est.margin() + 0.02,
                a.name + " respects the Theorem 3 bound");
    }
    rep.note("\n");
  }
}

}  // namespace

void register_exp02(Registry& r) {
  ScenarioSpec s;
  s.id = "exp02_opt2sfe_upper";
  s.title = "E02: Theorem 3 — Opt2SFE utility upper bound";
  s.claim =
      "Claim: u_A(Opt2SFE, A) <= (g10 + g11)/2 for all A, gamma in "
      "Gamma_fair.";
  s.protocol = "Opt2SFE";
  s.attack = "full two-party strategy family (7 attacks)";
  s.tags = {"smoke", "two-party", "opt2"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 3000;
  s.base_seed = 100;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.two_party_opt_bound(); };
  s.bound_note = "(g10+g11)/2";
  s.attacks = opt2_attack_family();
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
