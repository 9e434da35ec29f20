// Unit tests for the RPD fairness calculus: event classification, payoff
// vector classes, the estimator, the fairness relation, balance, and costs.
#include <gtest/gtest.h>

#include "rpd/balance.h"
#include "rpd/cost.h"
#include "rpd/estimator.h"
#include "rpd/fairness_relation.h"
#include "sim/engine.h"

namespace fairsfe::rpd {
namespace {

TEST(Events, ClassificationMatrix) {
  // (any_honest, all_corrupted, learned, honest_got) -> event
  EXPECT_EQ(classify({true, false, false, false}), FairnessEvent::kE00);
  EXPECT_EQ(classify({true, false, false, true}), FairnessEvent::kE01);
  EXPECT_EQ(classify({true, false, true, false}), FairnessEvent::kE10);
  EXPECT_EQ(classify({true, false, true, true}), FairnessEvent::kE11);
}

TEST(Events, AllCorruptedIsAlwaysE11) {
  for (bool learned : {false, true}) {
    for (bool got : {false, true}) {
      EXPECT_EQ(classify({false, true, learned, got}), FairnessEvent::kE11);
    }
  }
}

TEST(Events, NoCorruptionFallsIntoE01) {
  // With nobody corrupted the adversary learned nothing; the honest parties
  // finish, so the outcome is E01 (the paper's convention).
  EXPECT_EQ(classify({true, false, false, true}), FairnessEvent::kE01);
}

TEST(Events, ToStringNames) {
  EXPECT_EQ(to_string(FairnessEvent::kE00), "E00");
  EXPECT_EQ(to_string(FairnessEvent::kE11), "E11");
}

TEST(Events, OutcomeOfExecutionResult) {
  sim::ExecutionResult r;
  r.outputs = {Bytes{1}, std::nullopt, Bytes{1}};
  r.corrupted = {1};
  r.adversary_learned = true;
  const Outcome o = outcome_of(r, 3, all_honest_nonbot(r, 3));
  EXPECT_TRUE(o.any_honest);
  EXPECT_FALSE(o.all_corrupted);
  EXPECT_TRUE(o.adversary_learned);
  EXPECT_TRUE(o.honest_got_output);  // the ⊥ belongs to the corrupted party
  EXPECT_EQ(classify(o), FairnessEvent::kE11);
}

TEST(Events, AllHonestNonbotDetectsBot) {
  sim::ExecutionResult r;
  r.outputs = {Bytes{1}, std::nullopt};
  EXPECT_FALSE(all_honest_nonbot(r, 2));
  r.corrupted = {1};
  EXPECT_TRUE(all_honest_nonbot(r, 2));
}

TEST(Payoff, GammaFairMembership) {
  EXPECT_TRUE(PayoffVector::standard().in_gamma_fair());
  EXPECT_TRUE(PayoffVector::standard().in_gamma_fair_plus());
  EXPECT_TRUE(PayoffVector::partial_fairness().in_gamma_fair());
  // γ00 > γ11: in Γfair but not Γ+fair.
  const PayoffVector skew{0.7, 0.0, 1.0, 0.5};
  EXPECT_TRUE(skew.in_gamma_fair());
  EXPECT_FALSE(skew.in_gamma_fair_plus());
  // γ10 not the strict max: not in Γfair.
  EXPECT_FALSE((PayoffVector{1.0, 0.0, 1.0, 0.5}).in_gamma_fair());
  // γ01 != 0 fails until normalized.
  const PayoffVector shifted{0.5, 0.25, 1.25, 0.75};
  EXPECT_FALSE(shifted.in_gamma_fair());
  EXPECT_TRUE(shifted.normalized().in_gamma_fair());
}

TEST(Payoff, ClosedFormBounds) {
  const PayoffVector g = PayoffVector::standard();
  EXPECT_DOUBLE_EQ(g.two_party_opt_bound(), 0.75);
  EXPECT_DOUBLE_EQ(g.nparty_bound(1, 4), (1.0 * 1.0 + 3 * 0.5) / 4);
  EXPECT_DOUBLE_EQ(g.nparty_opt_bound(4), (3.0 + 0.5) / 4);
  EXPECT_DOUBLE_EQ(g.balance_bound(4), 3 * 1.5 / 2);
  EXPECT_DOUBLE_EQ(g.of(FairnessEvent::kE10), 1.0);
  EXPECT_DOUBLE_EQ(g.of(FairnessEvent::kE01), 0.0);
}

// Minimal deterministic party for estimator tests: outputs its input.
class EchoParty final : public sim::PartyBase<EchoParty> {
 public:
  EchoParty(sim::PartyId id, Bytes v) : PartyBase(id), v_(std::move(v)) {}
  std::vector<sim::Message> on_round(int, sim::MsgView) override {
    finish(v_);
    return {};
  }
  void on_abort() override {
    if (!done()) finish_bot();
  }

 private:
  Bytes v_;
};

SetupFactory echo_factory(bool learned) {
  return [learned](Rng&) {
    RunSetup s;
    s.parties.push_back(std::make_unique<EchoParty>(0, Bytes{1}));
    s.parties.push_back(std::make_unique<EchoParty>(1, Bytes{1}));
    s.engine.max_rounds = 4;
    s.adversary_learned = [learned](const sim::ExecutionResult&) { return learned; };
    return s;
  };
}

TEST(Estimator, DeterministicGivenSeed) {
  const PayoffVector g = PayoffVector::standard();
  EstimatorOptions opts;
  opts.runs = 50;
  opts.seed = 7;
  const auto a = estimate_utility(echo_factory(false), g, opts);
  const auto b = estimate_utility(echo_factory(false), g, opts);
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.event_freq, b.event_freq);
  EXPECT_EQ(a.run_events, b.run_events);
}

TEST(Estimator, PredicateOverridesControlEvents) {
  const PayoffVector g = PayoffVector::standard();
  // learned = false, honest got -> E01 -> payoff 0.
  const auto e01 = estimate_utility(echo_factory(false), g, EstimatorOptions{.runs = 50, .seed = 1});
  EXPECT_DOUBLE_EQ(e01.utility, 0.0);
  EXPECT_DOUBLE_EQ(e01.freq(FairnessEvent::kE01), 1.0);
  // learned = true, honest got -> E11 -> payoff γ11.
  const auto e11 = estimate_utility(echo_factory(true), g, EstimatorOptions{.runs = 50, .seed = 2});
  EXPECT_DOUBLE_EQ(e11.utility, g.g11);
}

TEST(Estimator, StdErrorIsZeroForConstantPayoffs) {
  const auto est =
      estimate_utility(echo_factory(true), PayoffVector::standard(),
                       EstimatorOptions{.runs = 100, .seed = 3});
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
  EXPECT_DOUBLE_EQ(est.margin(), 0.0);
}

TEST(FairnessRelation, BestAttackSelection) {
  const std::vector<NamedAttack> attacks = {
      {"weak", echo_factory(false)},
      {"strong", echo_factory(true)},
  };
  const auto a = assess_protocol(attacks, PayoffVector::standard(),
                                 EstimatorOptions{.runs = 50, .seed = 5});
  EXPECT_EQ(a.best_attack_name(), "strong");
  EXPECT_DOUBLE_EQ(a.best_utility(), 0.5);
}

TEST(FairnessRelation, PartialOrderSemantics) {
  const std::vector<NamedAttack> weak = {{"w", echo_factory(false)}};
  const std::vector<NamedAttack> strong = {{"s", echo_factory(true)}};
  const auto low = assess_protocol(weak, PayoffVector::standard(),
                                   EstimatorOptions{.runs = 50, .seed = 6});
  const auto high = assess_protocol(strong, PayoffVector::standard(),
                                    EstimatorOptions{.runs = 50, .seed = 7});
  EXPECT_TRUE(at_least_as_fair(low, high));
  EXPECT_FALSE(at_least_as_fair(high, low));
  EXPECT_TRUE(at_least_as_fair(low, low));  // reflexive
}

TEST(Cost, IdealPayoffBenchmark) {
  const PayoffVector g = PayoffVector::standard();
  EXPECT_DOUBLE_EQ(ideal_payoff(g, 0, 4), g.g01);
  EXPECT_DOUBLE_EQ(ideal_payoff(g, 2, 4), std::max(g.g00, g.g11));
  EXPECT_DOUBLE_EQ(ideal_payoff(g, 4, 4), g.g11);
}

TEST(Cost, DominationChecks) {
  const CostFunction a{{0.3, 0.5, 0.7}};
  const CostFunction b{{0.1, 0.2, 0.3}};
  const CostFunction c{{0.3, 0.1, 0.9}};
  EXPECT_TRUE(weakly_dominates(a, b));
  EXPECT_TRUE(strictly_dominates(a, b));
  EXPECT_FALSE(strictly_dominates(a, c));
  EXPECT_FALSE(weakly_dominates(b, a));
  EXPECT_FALSE(weakly_dominates(a, CostFunction{{0.1, 0.2}}));  // size mismatch
}

TEST(Cost, NetUtility) {
  const CostFunction c{{0.25, 0.5}};
  EXPECT_DOUBLE_EQ(net_utility(0.875, c, 1), 0.625);
  EXPECT_DOUBLE_EQ(net_utility(0.875, c, 2), 0.375);
}

TEST(Balance, ProfileAccounting) {
  BalanceProfile p;
  p.n = 3;
  AttackResult r1{"a", {}};
  r1.estimate.utility = 0.625;
  r1.estimate.std_error = 0.01;
  AttackResult r2{"b", {}};
  r2.estimate.utility = 0.833;
  r2.estimate.std_error = 0.02;
  p.best_per_t = {r1, r2};
  EXPECT_DOUBLE_EQ(p.phi(1), 0.625);
  EXPECT_DOUBLE_EQ(p.phi(2), 0.833);
  EXPECT_NEAR(p.sum(), 1.458, 1e-9);
  EXPECT_NEAR(p.sum_margin(), 0.09, 1e-9);
  // (n-1)(g10+g11)/2 = 1.5 for the standard vector: balanced.
  EXPECT_TRUE(is_utility_balanced(p, PayoffVector::standard()));
}

}  // namespace
}  // namespace fairsfe::rpd
