// The pluggable payoff model (DESIGN.md §13). The load-bearing claims:
//
//   1. VectorModel is BIT-IDENTICAL to the legacy PayoffVector path — same
//      utility, std_error, event frequencies, and per-run event trace — for
//      every thread count, lane width, and PreprocMode, because score() is
//      the same `gamma.of(event)` double on both call chains. This is what
//      keeps every committed BENCH golden byte-stable across the refactor.
//   2. CollateralTerms::validate rejects the inputs that must never reach
//      the estimator's accumulators (negative / NaN deposits, refund
//      fractions outside [0, 1]).
//   3. CollateralModel's score arithmetic matches the penalty-model story:
//      event payoff, minus deposit+penalty on a proven withhold, minus the
//      unrefunded fraction otherwise; no deposit posted degenerates to
//      VectorModel exactly.
//   4. Γfair / Γ+fair membership is answerable through the model API (the
//      paper's Section 3 class constraints survive the generalization).
//
// All suites here match the tier-1 filter (PayoffModel*) in
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "circuit/builder.h"
#include "experiments/setups.h"
#include "mpc/gmw_sliced.h"
#include "mpc/preproc/provider.h"
#include "rpd/estimator.h"
#include "rpd/payoff_model.h"
#include "util/bitmat.h"

namespace fairsfe {
namespace {

using mpc::preproc::PreprocMode;
using rpd::CollateralModel;
using rpd::CollateralTerms;
using rpd::FairnessEvent;
using rpd::RunOutcome;
using rpd::VectorModel;

std::shared_ptr<const mpc::GmwConfig> config_for(const circuit::Circuit& c,
                                                 PreprocMode mode, std::size_t runs,
                                                 std::uint64_t seed) {
  mpc::GmwConfigBuilder b = mpc::GmwConfig::for_circuit(c);
  if (mpc::preproc::is_offline(mode)) {
    const mpc::GmwConfig probe = mpc::GmwConfig::public_output(c);
    mpc::preproc::PreprocRequest req;
    req.parties = c.num_parties();
    req.triples = runs * probe.triples_per_run();
    Rng rng(seed);
    b.with_preproc(mode, mpc::preproc::generate_batch(mode, req, rng));
  }
  return b.build_shared();
}

rpd::EstimatorOptions opts_with(std::size_t runs, std::uint64_t seed,
                                std::size_t threads) {
  rpd::EstimatorOptions o;
  o.runs = runs;
  o.seed = seed;
  o.threads = threads;
  return o;
}

void expect_bit_identical(const rpd::UtilityEstimate& a, const rpd::UtilityEstimate& b) {
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.event_freq, b.event_freq);
  EXPECT_EQ(a.run_events, b.run_events);
}

// --------------------------------------------------- legacy bit-identity

TEST(PayoffModelVector, BitIdenticalToLegacyAcrossThreadsLanesAndPreproc) {
  // The VectorModel call chain (estimate_utility + PayoffModel) against the
  // legacy PayoffVector overload, over the scalar engine AND the bit-sliced
  // runner, every PreprocMode, threads {1, 2, 8}: sixty-three doubles in
  // lockstep or the refactor broke the goldens.
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const std::size_t runs = 192;
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const VectorModel model(gamma);
  for (const PreprocMode mode :
       {PreprocMode::kInline, PreprocMode::kOfflineIdeal, PreprocMode::kOfflineOt}) {
    const auto cfg = config_for(mill, mode, runs, 910);
    const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(cfg);
    const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
    for (const std::size_t lanes : {std::size_t{1}, util::kLaneWidth}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        auto o = opts_with(runs, 31, threads);
        o.lanes = lanes;
        const auto legacy = rpd::estimate_utility(target, gamma, o);
        const auto modeled = rpd::estimate_utility(target, model, o);
        EXPECT_EQ(legacy.lanes, lanes);
        EXPECT_EQ(modeled.lanes, lanes);
        expect_bit_identical(legacy, modeled);
      }
    }
  }
}

TEST(PayoffModelVector, ScoreIsExactlyGammaOfEvent) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const VectorModel model(gamma);
  for (const FairnessEvent e : {FairnessEvent::kE00, FairnessEvent::kE01,
                                FairnessEvent::kE10, FairnessEvent::kE11}) {
    RunOutcome o;
    o.event = e;
    EXPECT_EQ(model.score(o), gamma.of(e));
    // Collateral flags must be inert on the vector model: same double even
    // if a mapping annotated them.
    o.deposit_posted = true;
    o.adversary_withheld = true;
    EXPECT_EQ(model.score(o), gamma.of(e));
  }
}

// --------------------------------------------------- collateral validation

TEST(PayoffModelCollateralDeathTest, ValidationRejectsBadTerms) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  CollateralTerms negative;
  negative.deposit = -0.5;
  EXPECT_DEATH(CollateralModel(gamma, negative), "deposit");
  CollateralTerms nan_deposit;
  nan_deposit.deposit = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CollateralModel(gamma, nan_deposit), "deposit");
  CollateralTerms bad_penalty;
  bad_penalty.penalty = -1.0;
  EXPECT_DEATH(CollateralModel(gamma, bad_penalty), "penalty");
  CollateralTerms bad_refund;
  bad_refund.refund = 1.5;
  EXPECT_DEATH(CollateralModel(gamma, bad_refund), "refund");
}

TEST(PayoffModelCollateral, ScoreArithmeticMatchesThePenaltyStory) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  CollateralTerms terms;
  terms.deposit = 0.4;
  terms.penalty = 0.1;
  terms.refund = 0.75;
  const CollateralModel model(gamma, terms);

  RunOutcome o;
  o.event = FairnessEvent::kE10;
  // No deposit posted: pure event payoff (degenerates to VectorModel).
  EXPECT_DOUBLE_EQ(model.score(o), gamma.of(FairnessEvent::kE10));
  // Posted and withheld after learning: forfeits deposit + penalty.
  o.deposit_posted = true;
  o.adversary_withheld = true;
  EXPECT_DOUBLE_EQ(model.score(o), gamma.of(FairnessEvent::kE10) - 0.4 - 0.1);
  // Posted, clean run: only the unrefunded fraction is lost.
  o.event = FairnessEvent::kE11;
  o.adversary_withheld = false;
  EXPECT_DOUBLE_EQ(model.score(o), gamma.of(FairnessEvent::kE11) - 0.25 * 0.4);
}

TEST(PayoffModelCollateral, FullRefundNoDepositIsVectorModelExactly) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const CollateralModel collateral(gamma, CollateralTerms{});
  const VectorModel vector(gamma);
  for (const FairnessEvent e : {FairnessEvent::kE00, FairnessEvent::kE01,
                                FairnessEvent::kE10, FairnessEvent::kE11}) {
    for (const bool posted : {false, true}) {
      for (const bool withheld : {false, true}) {
        RunOutcome o;
        o.event = e;
        o.deposit_posted = posted;
        o.adversary_withheld = withheld;
        EXPECT_EQ(collateral.score(o), vector.score(o));
      }
    }
  }
}

// --------------------------------------------------- Γ class membership

TEST(PayoffModelGamma, MembershipIsAnswerableThroughTheModelApi) {
  EXPECT_TRUE(VectorModel(rpd::payoff::standard()).in_gamma_fair_plus());
  EXPECT_TRUE(VectorModel(rpd::payoff::partial_fairness()).in_gamma_fair());
  // Spiteful (g00 > g11) stays in Γfair but leaves Γ+fair.
  const VectorModel spite(rpd::payoff::spiteful());
  EXPECT_TRUE(spite.in_gamma_fair());
  EXPECT_FALSE(spite.in_gamma_fair_plus());
  // Collateral deforms the score, not the anchoring vector: membership is
  // the vector's, at every deposit level.
  CollateralTerms terms;
  terms.deposit = 1.0;
  const CollateralModel escrowed(rpd::payoff::standard(), terms);
  EXPECT_TRUE(escrowed.in_gamma_fair_plus());
  EXPECT_EQ(escrowed.gamma().g10, rpd::payoff::standard().g10);
}

TEST(PayoffModelGamma, PresetsMatchTheCanonicalVectors) {
  // The named presets are the single definition point (satellite of the
  // gamma-literal lint rule): pin them to the historical values.
  const rpd::PayoffVector std_g = rpd::payoff::standard();
  EXPECT_EQ(std_g.g00, 0.25);
  EXPECT_EQ(std_g.g01, 0.0);
  EXPECT_EQ(std_g.g10, 1.0);
  EXPECT_EQ(std_g.g11, 0.5);
  const rpd::PayoffVector pf = rpd::payoff::partial_fairness();
  EXPECT_EQ(pf.g00, 0.0);
  EXPECT_EQ(pf.g11, 0.0);
  EXPECT_EQ(rpd::payoff::swap_standard().g10, std_g.g10);
  EXPECT_EQ(rpd::payoff::contract_gamma().g00, std_g.g00);
  EXPECT_EQ(rpd::payoff::sensitivity(0.5).g00, 0.25);
  EXPECT_EQ(rpd::payoff::sensitivity(0.5).g11, 0.5);
  // shifted_standard normalizes back to standard (the wlog argument).
  const rpd::PayoffVector norm = rpd::payoff::shifted_standard().normalized();
  EXPECT_EQ(norm.g00, std_g.g00);
  EXPECT_EQ(norm.g01, 0.0);
  EXPECT_EQ(norm.g10, std_g.g10);
  EXPECT_EQ(norm.g11, std_g.g11);
}

}  // namespace
}  // namespace fairsfe
