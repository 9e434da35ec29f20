// E03 — Theorem 4 / Lemma 7: the lower bound. For the swap-like function
// (two-party exchange), the mixed adversary Agen earns at least
// (γ10 + γ11)/2 against *any* protocol, and the pair (A1, A2) jointly earns
// γ10 + γ11. The harness runs these adversaries against every two-party
// protocol in the library and shows none escapes the bound — while the
// unfair protocols exceed it.
#include <algorithm>
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

  struct ProtocolRow {
    std::string name;
    std::function<rpd::SetupFactory(sim::PartyId)> lock_abort;
    rpd::SetupFactory agen;
  };
  const std::vector<ProtocolRow> protocols = {
      {"Opt2SFE", [](sim::PartyId c) { return opt2_lock_abort(c); }, opt2_agen()},
      {"Pi1 (naive contract)",
       [](sim::PartyId c) { return contract_attack(fair::ContractVariant::kPi1, c); },
       rpd::SetupFactory{}},
      {"Pi2 (coin-toss contract)",
       [](sim::PartyId c) { return contract_attack(fair::ContractVariant::kPi2, c); },
       rpd::SetupFactory{}},
  };

  std::uint64_t seed = ctx.spec.base_seed;
  for (const auto& proto : protocols) {
    rep.note("--- protocol: %s ---\n", proto.name.c_str());
    rep.row_header();
    const auto a1 = rpd::estimate_utility(proto.lock_abort(0), gamma, rep.opts(seed++));
    const auto a2 = rpd::estimate_utility(proto.lock_abort(1), gamma, rep.opts(seed++));
    rep.row("A1 (corrupt p1)", a1, "");
    rep.row("A2 (corrupt p2)", a2, "");
    const double pair_sum = a1.utility + a2.utility;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "u(A1)+u(A2) = %.4f  (Lemma 7 floor %.3f)", pair_sum,
                  gamma.g10 + gamma.g11);
    rep.note("%s\n", buf);
    rep.check(pair_sum >= gamma.g10 + gamma.g11 - a1.margin() - a2.margin() - 0.03,
              proto.name + ": Lemma 7 pair bound holds");
    if (proto.agen) {
      const auto agen = rpd::estimate_utility(proto.agen, gamma, rep.opts(seed++));
      rep.row("Agen (mix of A1, A2)", agen, "");
      rep.check(agen.utility >= gamma.two_party_opt_bound() - agen.margin() - 0.03,
                proto.name + ": Theorem 4 mixed bound holds");
    }
    rep.note("\n");
  }

  rep.note("Interpretation: no two-party protocol evades (g10+g11)/2; the optimal\n"
           "protocol achieves it exactly, the naive Pi1 does strictly worse.\n");
}

}  // namespace

void register_exp03(Registry& r) {
  ScenarioSpec s;
  s.id = "exp03_swap_lower";
  s.title = "E03: Theorem 4 / Lemma 7 — universal lower bound for the swap function";
  s.claim =
      "Claim: u(A1) + u(A2) >= g10 + g11 for every protocol; the mixed Agen earns\n"
      ">= (g10+g11)/2. Opt2SFE meets the bound with equality (it is optimal).";
  s.protocol = "Opt2SFE / Pi1 / Pi2 (every two-party design)";
  s.attack = "A1, A2, Agen (Theorem 4 adversaries)";
  s.tags = {"smoke", "two-party", "opt2", "contract"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 3000;
  s.base_seed = 300;
  s.bound = [](const rpd::PayoffVector& g, double) { return g.g10 + g.g11; };
  s.bound_note = "u(A1)+u(A2) >= g10+g11";
  s.attacks = {{"A1 (corrupt p1)", opt2_lock_abort(0)},
               {"A2 (corrupt p2)", opt2_lock_abort(1)},
               {"Agen (mix of A1, A2)", opt2_agen()}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
