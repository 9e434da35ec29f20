// Unit tests for the attack-strategy implementations.
#include <gtest/gtest.h>

#include "adversary/gk_adversary.h"
#include "adversary/lock_abort.h"
#include "adversary/mixed.h"
#include "adversary/strategies.h"
#include "experiments/setups.h"
#include "fair/dummy_ideal.h"
#include "fair/opt2sfe.h"

namespace fairsfe::adversary {
namespace {

TEST(LockAbort, ReportsExtractedOutputCorrectly) {
  // Against Opt2SFE the adversary's extracted output, when it claims to have
  // learned, must be the actual y.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const mpc::SfeSpec spec = experiments::two_party_spec();
    const auto xs = experiments::random_inputs(2, rng);
    const Bytes y = xs[0] + xs[1];
    auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
    auto adv = std::make_unique<LockAbortAdversary>(std::set<sim::PartyId>{0}, y);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 12;
    sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec),
                  std::move(adv), rng.fork("engine"), cfg);
    auto r = e.run();
    ASSERT_TRUE(r.adversary_learned);  // lock-abort always eventually sees y here
    ASSERT_TRUE(r.adversary_output.has_value());
    EXPECT_EQ(*r.adversary_output, y);
  }
}

TEST(LockAbort, NeverFalselyLearnsAgainstFairDummy) {
  // Against the fair functionality with high-entropy outputs, the adversary
  // learns only when everyone does (E11), never exclusively.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 100);
    const auto xs = experiments::random_inputs(2, rng);
    auto parties = fair::make_dummy_parties(xs);
    auto adv = std::make_unique<LockAbortAdversary>(std::set<sim::PartyId>{0},
                                                    xs[0] + xs[1]);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 8;
    sim::Engine e(std::move(parties),
                  std::make_unique<mpc::SfeFunc>(experiments::two_party_spec(),
                                                 mpc::SfeMode::kFair),
                  std::move(adv), rng.fork("engine"), cfg);
    auto r = e.run();
    // If the adversary learned, the honest party got its output too.
    if (r.adversary_learned) {
      EXPECT_TRUE(r.outputs[1].has_value());
      EXPECT_EQ(*r.outputs[1], xs[0] + xs[1]);
    }
  }
}

TEST(MixedAdversary, ChoosesUniformly) {
  // Count which corruption the mixture picks over many runs.
  std::array<int, 2> counts{};
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed);
    const mpc::SfeSpec spec = experiments::two_party_spec();
    const auto xs = experiments::random_inputs(2, rng);
    const Bytes y = xs[0] + xs[1];
    std::vector<AdversaryFactory> choices;
    for (sim::PartyId c : {0, 1}) {
      choices.push_back([c, y](Rng&) {
        return std::make_unique<LockAbortAdversary>(std::set<sim::PartyId>{c}, y);
      });
    }
    auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
    auto adv = std::make_unique<MixedAdversary>(std::move(choices));
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 12;
    sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec),
                  std::move(adv), rng.fork("engine"), cfg);
    auto r = e.run();
    ASSERT_EQ(r.corrupted.size(), 1u);
    counts[static_cast<std::size_t>(*r.corrupted.begin())]++;
  }
  EXPECT_GT(counts[0], 140);
  EXPECT_GT(counts[1], 140);
}

TEST(MixedAdversary, EmptyChoicesThrows) {
  EXPECT_THROW(MixedAdversary(std::vector<AdversaryFactory>{}), std::invalid_argument);
}

TEST(GkRules, AbortAtFiresExactlyOnce) {
  Rng rng(1);
  auto rule = gk_rule_abort_at(3);
  std::vector<Bytes> hist;
  for (std::size_t j = 1; j <= 5; ++j) {
    hist.push_back(Bytes{static_cast<std::uint8_t>(j)});
    EXPECT_EQ(rule(j, hist, rng), j == 3);
  }
}

TEST(GkRules, MatchTargetFiresOnMatch) {
  Rng rng(2);
  auto rule = gk_rule_match_target(Bytes{7});
  std::vector<Bytes> hist = {Bytes{1}};
  EXPECT_FALSE(rule(1, hist, rng));
  hist.push_back(Bytes{7});
  EXPECT_TRUE(rule(2, hist, rng));
}

TEST(GkRules, RepeatDetectorNeedsTwoEqual) {
  Rng rng(3);
  auto rule = gk_rule_repeat_detector();
  std::vector<Bytes> hist = {Bytes{4}};
  EXPECT_FALSE(rule(1, hist, rng));
  hist.push_back(Bytes{5});
  EXPECT_FALSE(rule(2, hist, rng));
  hist.push_back(Bytes{5});
  EXPECT_TRUE(rule(3, hist, rng));
}

TEST(GkRules, GeometricRateRoughlyBeta) {
  Rng rng(4);
  auto rule = gk_rule_geometric(0.25);
  int fires = 0;
  std::vector<Bytes> hist = {Bytes{0}};
  for (int i = 0; i < 2000; ++i) {
    if (rule(1, hist, rng)) ++fires;
  }
  EXPECT_NEAR(fires / 2000.0, 0.25, 0.04);
}

TEST(Strategies, AbortFunctionalityProvokesE00OnUnfairBox) {
  // Gate abort before using outputs: honest parties of the *n-party*
  // protocol end with ⊥ and the adversary has nothing -> E00.
  const auto est = rpd::estimate_utility(experiments::optn_abort_phase1(3, 1),
                                         rpd::PayoffVector::standard(),
                                         rpd::EstimatorOptions{.runs = 200, .seed = 5});
  EXPECT_DOUBLE_EQ(est.freq(rpd::FairnessEvent::kE00), 1.0);
  EXPECT_DOUBLE_EQ(est.utility, rpd::PayoffVector::standard().g00);
}

TEST(Strategies, PassiveObserverLearnsOnCompletion) {
  const auto est = rpd::estimate_utility(experiments::optn_passive(3, 1),
                                         rpd::PayoffVector::standard(),
                                         rpd::EstimatorOptions{.runs = 200, .seed = 6});
  // Passive run completes: everyone learns -> E11 always.
  EXPECT_DOUBLE_EQ(est.freq(rpd::FairnessEvent::kE11), 1.0);
}

TEST(Strategies, HalfGmwCoalitionAlwaysExtractsTheRealOutput) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 300);
    const std::size_t n = 4;
    const mpc::SfeSpec spec = experiments::nparty_spec(n);
    const auto xs = experiments::random_inputs(n, rng);
    Bytes y;
    for (const auto& x : xs) y = y + x;
    auto inst = fair::make_half_gmw_instance(spec, xs, rng);
    auto adv = std::make_unique<HalfGmwCoalition>(std::set<sim::PartyId>{0, 1}, n);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 16;
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality), std::move(adv),
                  rng.fork("engine"), cfg);
    auto r = e.run();
    ASSERT_TRUE(r.adversary_learned);
    EXPECT_EQ(*r.adversary_output, y);
    // n=4, t=2: honest parties blocked.
    EXPECT_FALSE(r.outputs[2].has_value());
    EXPECT_FALSE(r.outputs[3].has_value());
  }
}

TEST(Strategies, Lemma18DeviatorEventMix) {
  // Over many runs the deviator should see all three outcomes: gate-abort
  // E10 (it was i*), broadcast E11 (heads), tails-reveal E10.
  const auto est = rpd::estimate_utility(experiments::lemma18_deviator(4),
                                         rpd::PayoffVector::standard(),
                                         rpd::EstimatorOptions{.runs = 600, .seed = 7});
  EXPECT_GT(est.freq(rpd::FairnessEvent::kE10), 0.4);
  EXPECT_GT(est.freq(rpd::FairnessEvent::kE11), 0.2);
}

}  // namespace
}  // namespace fairsfe::adversary
