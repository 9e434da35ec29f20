// Contract signing: the paper's opening example, live.
//
// Two parties exchange signed contracts with Π₁ (naive ordered opening) and
// with Π₂ (Blum coin toss decides the order). The example shows a single
// adversarial run of each, then quantifies the fairness gap with the
// utility-based relation — Π₂ ⪰γ Π₁ and not vice versa.
//
//   build/examples/contract_signing
#include <cstdio>

#include "experiments/setups.h"
#include "fairsfe.h"

using namespace fairsfe;
using namespace fairsfe::experiments;

namespace {
void narrate_run(const char* name, fair::ContractVariant variant, std::uint64_t seed) {
  Rng rng(seed);
  const Bytes c0 = bytes_of("alice-signature");
  const Bytes c1 = bytes_of("bob-signature!!");
  auto parties = fair::make_contract_parties(variant, c0, c1, rng);
  // Bob (p2) is corrupted by the lock-abort adversary.
  auto adv = std::make_unique<adversary::LockAbortAdversary>(std::set<sim::PartyId>{1},
                                                             c0 + c1);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 12;
  sim::Engine engine(std::move(parties), nullptr, std::move(adv), rng.fork("engine"), cfg);
  const auto r = engine.run();
  std::printf("%s, corrupted Bob:\n", name);
  std::printf("  honest Alice got: %s\n",
              r.outputs[0] ? "both signed contracts" : "NOTHING (unfair abort)");
  std::printf("  Bob extracted:    %s\n\n",
              r.adversary_learned ? "both signed contracts" : "nothing");
}
}  // namespace

int main() {
  std::printf("== single adversarial runs ==\n\n");
  narrate_run("Pi1 (fixed opening order)", fair::ContractVariant::kPi1, 11);
  // With Pi2, whether Bob wins depends on the coin; show both outcomes.
  narrate_run("Pi2 (coin-tossed order), lucky coin", fair::ContractVariant::kPi2, 3);
  narrate_run("Pi2 (coin-tossed order), unlucky coin", fair::ContractVariant::kPi2, 5);

  std::printf("== the comparative fairness statement ==\n\n");
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto pi1 = rpd::assess_protocol(
      two_party_attack_family([](sim::PartyId c) {
        return contract_attack(fair::ContractVariant::kPi1, c);
      }),
      gamma, rpd::EstimatorOptions{.runs = 2000, .seed = 100});
  const auto pi2 = rpd::assess_protocol(
      two_party_attack_family([](sim::PartyId c) {
        return contract_attack(fair::ContractVariant::kPi2, c);
      }),
      gamma, rpd::EstimatorOptions{.runs = 2000, .seed = 200});
  std::printf("best attacker vs Pi1: %.3f (%s)\n", pi1.best_utility(),
              pi1.best_attack_name().c_str());
  std::printf("best attacker vs Pi2: %.3f (%s)\n", pi2.best_utility(),
              pi2.best_attack_name().c_str());
  std::printf("Pi2 at-least-as-fair-as Pi1: %s;  Pi1 at-least-as-fair-as Pi2: %s\n",
              rpd::at_least_as_fair(pi2, pi1) ? "yes" : "no",
              rpd::at_least_as_fair(pi1, pi2) ? "yes" : "no");
  std::printf("\n\"One would simply say that protocol Pi2 is twice as fair as Pi1.\"\n");
  return 0;
}
