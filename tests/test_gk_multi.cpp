// Multi-party partial fairness (Beimel et al. extension, E16): honest
// correctness across n, the 1/p bound for coalitions of every size, and the
// randomized-abort guarantee.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "experiments/setups.h"
#include "fair/gk_multi.h"

namespace fairsfe::fair {
namespace {

class GkMultiHonestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GkMultiHonestTest, HonestAllGetAndOutput) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(100 * n + seed);
    const GkMultiParams params = make_gk_multi_and_params(n, 2);
    std::vector<Bytes> xs;
    std::uint8_t expect = 1;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t b = rng.bit() ? 1 : 0;
      expect &= b;
      xs.push_back(Bytes{b});
    }
    auto parties = make_gk_multi_parties(params, xs, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(params.cap() + 10);
    sim::Engine e(std::move(parties), std::make_unique<MultiShareGenFunc>(params), nullptr,
                  rng.fork("engine"), cfg);
    auto r = e.run();
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_TRUE(r.outputs[p].has_value()) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(*r.outputs[p], Bytes{expect});
    }
    EXPECT_FALSE(r.hit_round_cap);
  }
}

INSTANTIATE_TEST_SUITE_P(PartySweep, GkMultiHonestTest, ::testing::Values(2, 3, 4, 6));

TEST(GkMulti, ShareHashIsTheLabeledHash) {
  // The stack-built input against sha256_labeled over a Writer, across the
  // one-block, multi-block and heap-buffer sizes.
  Rng rng(41);
  for (const std::size_t nonce_len : {0u, 16u, 100u}) {
    for (std::size_t len = 0; len <= 200; len += (len < 64 ? 1 : 17)) {
      const Bytes nonce = rng.bytes(nonce_len);
      const Bytes summand = rng.bytes(len);
      const std::size_t j = len * 1000 + nonce_len;
      Writer w;
      w.u64(j).blob(nonce).blob(summand);
      Bytes h(32);
      gk_multi_share_hash(j, nonce, summand, h.data());
      EXPECT_EQ(h, sha256_labeled("gk-multi", w.bytes())) << nonce_len << "/" << len;
    }
  }
}

TEST(GkMulti, CoalitionBoundHoldsAcrossT) {
  const rpd::PayoffVector pf = rpd::PayoffVector::partial_fairness();
  const std::size_t n = 4;
  const std::size_t p = 3;
  std::uint64_t seed = 500;
  for (std::size_t t = 1; t < n; ++t) {
    for (const auto& attack : experiments::gk_multi_attack_family(n, t, p)) {
      const auto est = rpd::estimate_utility(
          attack.factory, pf, rpd::EstimatorOptions{.runs = 800, .seed = seed++});
      EXPECT_LE(est.utility, 1.0 / static_cast<double>(p) + est.margin() + 0.02)
          << "t=" << t << " " << attack.name;
    }
  }
}

TEST(GkMulti, LargerPIsFairer) {
  const rpd::PayoffVector pf = rpd::PayoffVector::partial_fairness();
  double prev = 1.0;
  for (const std::size_t p : {2u, 4u, 8u}) {
    const auto assessment = rpd::assess_protocol(
        experiments::gk_multi_attack_family(3, 2, p), pf,
        rpd::EstimatorOptions{.runs = 800, .seed = 700 + p});
    EXPECT_LE(assessment.best_utility(), prev + 0.05);
    prev = assessment.best_utility();
  }
}

TEST(GkMulti, WithheldShareFallsBackToLastValue) {
  // A coalition aborting at round j leaves honest parties with a 1-byte
  // value (v_{j-1}) — well-formed, possibly fake, never a crash.
  const auto factory =
      experiments::gk_multi_attack(3, 1, 2, experiments::GkAttack::kAbortAt1);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    Rng setup_rng = rng.fork("setup");
    auto setup = factory(setup_rng);
    auto r = rpd::execute(std::move(setup), rng.fork("engine"));
    for (std::size_t pid = 1; pid < 3; ++pid) {
      ASSERT_TRUE(r.outputs[pid].has_value());
      EXPECT_EQ(r.outputs[pid]->size(), 1u);
    }
  }
}

TEST(GkMulti, PhaseOneGateAbortGivesDefaultEvaluation) {
  // If the adversary kills ShareGen at the gate, honest parties fall back to
  // the default-input local evaluation (AND with a default 0 => 0).
  class GateKiller final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(0); }
    std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                       const sim::AdvView& view) override {
      if (view.round == 0) return ctx.honest_step(0, {});
      return {};
    }
    bool abort_functionality(sim::AdvContext&, const std::vector<sim::Message>&) override {
      return true;
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  Rng rng(42);
  const GkMultiParams params = make_gk_multi_and_params(3, 2);
  auto parties = make_gk_multi_parties(params, {Bytes{1}, Bytes{1}, Bytes{1}}, rng);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = static_cast<int>(params.cap() + 10);
  sim::Engine e(std::move(parties), std::make_unique<MultiShareGenFunc>(params),
                std::make_unique<GateKiller>(), rng.fork("engine"), cfg);
  auto r = e.run();
  for (std::size_t pid = 1; pid < 3; ++pid) {
    ASSERT_TRUE(r.outputs[pid].has_value());
    EXPECT_EQ(*r.outputs[pid], Bytes{0});  // 1 AND 1 AND default(0)
  }
}

}  // namespace
}  // namespace fairsfe::fair
