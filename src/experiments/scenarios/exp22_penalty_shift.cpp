// E22 — the economic-fairness flip. Γfair alone cannot price an abort: under
// the standard ~γ the learn-then-withhold strategy earns γ10 = 1 and no
// plain-model protocol pushes it below (γ10+γ11)/2. The penalty model
// changes the GAME: both parties escrow a deposit d, and a withhold proven
// by the escrow forfeits it, so the strategy's payoff drops to γ10 − d.
// The sweep shows the rational adversary flipping from withholding to
// honesty exactly past d* = γ10 − γ11, and the zoo section orders every
// two-party family of the repo — dummy, FullSec(dummy), Opt2SFE, contract,
// GK, round-sampling 1/p, escrowed exchange — under at_least_as_fair in one
// run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"
#include "rpd/payoff_model.h"

namespace fairsfe::experiments {
namespace {

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;
  const rpd::PayoffVector gamma = ctx.spec.gamma;
  rep.gamma(gamma);

  std::uint64_t seed = ctx.spec.base_seed;
  const auto family = penalty_attack_family();

  rep.note("--- deposit sweep: u(withhold) = g10 - d vs u(honest) = g11 ---\n");
  std::string best_at_zero, best_at_full;
  for (const double d : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    rpd::CollateralTerms terms;
    terms.deposit = d;
    const rpd::CollateralModel model(gamma, terms);
    const double bound = ctx.spec.bound(gamma, d);
    rep.note("deposit d = %.1f  (model %s)\n", d, model.name().c_str());
    rep.row_header();
    const auto assess = rpd::assess_protocol(family, model, rep.opts(seed++));
    for (const auto& a : assess.attacks) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "<= max(g10-d, g11) = %.2f", bound);
      rep.row(a.name, a.estimate, buf);
    }
    rep.check(assess.best_utility() <= bound + assess.best_margin() + 0.02,
              "d=" + std::to_string(d).substr(0, 3) + " best <= max(g10-d, g11)");
    if (d == 0.0) best_at_zero = assess.best_attack_name();
    if (d == 1.0) best_at_full = assess.best_attack_name();
    rep.note("best strategy: %s (%.4f)\n\n", assess.best_attack_name().c_str(),
             assess.best_utility());
  }
  rep.check(best_at_zero == "withhold-claim",
            "d=0: learn-then-withhold is the rational strategy");
  rep.check(best_at_full == "honest",
            "d=1: honesty is the rational strategy (flip past d* = g10 - g11)");

  // --- protocol zoo: one at_least_as_fair ordering over every family -------
  rep.note("--- protocol zoo under standard gamma (fairest first) ---\n");
  std::vector<std::pair<std::string, rpd::ProtocolAssessment>> zoo;
  const rpd::VectorModel vector_model(gamma);
  const std::vector<std::pair<std::string, std::vector<rpd::NamedAttack>>> families = {
      {"dummy Phi^Fsfe", two_party_attack_family(dummy2_lock_abort)},
      {"FullSec(Phi)", full_security_attack_family()},
      {"Opt2SFE", two_party_attack_family(opt2_lock_abort)},
      {"contract Pi1",
       two_party_attack_family([](sim::PartyId c) {
         return contract_attack(fair::ContractVariant::kPi1, c);
       })},
      {"GK(p=4)", gk_attack_family(fair::make_gk_and_params(4))},
      {"1/p-sampling(p=4)", partial_1p_attack_family(fair::make_partial_1p_and_params(4))},
  };
  for (const auto& [name, attacks] : families) {
    zoo.emplace_back(name, rpd::assess_protocol(attacks, vector_model, rep.opts(seed++)));
  }
  rpd::CollateralTerms unit;
  unit.deposit = 1.0;
  zoo.emplace_back("penalty(d=1)", rpd::assess_protocol(
                                       family, rpd::CollateralModel(gamma, unit),
                                       rep.opts(seed++)));

  std::stable_sort(zoo.begin(), zoo.end(), [](const auto& a, const auto& b) {
    return a.second.best_utility() < b.second.best_utility();
  });
  rep.row_header();
  std::size_t chain = 1;  // a single protocol is trivially a chain
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& [name, assess] = zoo[i];
    rep.row(name + " | " + assess.best_attack_name(),
            assess.attacks[assess.best_index].estimate, "zoo sup_A u_A");
    if (i > 0 && rpd::at_least_as_fair(zoo[i - 1].second, assess)) ++chain;
  }
  rep.check(chain >= 6, "at_least_as_fair orders >= 6 protocol families (chain = " +
                            std::to_string(chain) + ")");
  rep.note("ordered chain length: %zu of %zu families\n", chain, zoo.size());
}

}  // namespace

void register_exp22(Registry& r) {
  ScenarioSpec s;
  s.id = "exp22_penalty_shift";
  s.title = "E22: deposit sweep — the economic fairness flip";
  s.claim =
      "Claim: escrowed deposits reprice the withhold strategy to g10 - d;\n"
      "past d* = g10 - g11 the rational adversary plays honestly.";
  s.protocol = "escrowed exchange (penalty model)";
  s.attack = "deposit-game family";
  s.tags = {"smoke", "two-party", "penalty", "zoo"};
  s.gamma = rpd::payoff::standard();
  // The canonical model for ScenarioSpec consumers: the full-deposit point
  // (the interesting end of the sweep; the body re-anchors per deposit).
  rpd::CollateralTerms unit;
  unit.deposit = 1.0;
  s.model = rpd::make_collateral_model(s.gamma, unit);
  s.default_runs = 2500;
  s.base_seed = 2200;
  // x = d: the deposit level of the sweep point.
  s.bound = [](const rpd::PayoffVector& g, double x) {
    return std::max(g.g10 - x, g.g11);
  };
  s.bound_note = "u_A <= max(g10 - d, g11) (pass x = d)";
  s.attacks = penalty_attack_family();
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
