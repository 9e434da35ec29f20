// Gradual-release exchange tests: honest completion, budget-gated brute
// force on abort, tamper detection, and the knife-edge utility profile.
#include <gtest/gtest.h>

#include "adversary/lock_abort.h"
#include "fair/gradual.h"
#include "rpd/estimator.h"
#include "sim/engine.h"

namespace fairsfe::fair {
namespace {

GradualConfig cfg_with(std::size_t bits, std::size_t b0, std::size_t b1) {
  GradualConfig cfg;
  cfg.secret_bits = bits;
  cfg.budget_bits = {b0, b1};
  return cfg;
}

TEST(GradualRelease, HonestExchangeCompletes) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    const Bytes x0 = rng.bytes(2);
    const Bytes x1 = rng.bytes(2);
    auto parties = make_gradual_parties(cfg_with(16, 0, 0), x0, x1, rng);
    sim::ExecutionOptions ecfg;
    ecfg.max_rounds = 64;
    auto r = sim::run_honest(std::move(parties), rng.fork("engine"), ecfg);
    ASSERT_TRUE(r.outputs[0].has_value()) << "seed " << seed;
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], x0 + x1);
    EXPECT_EQ(*r.outputs[1], x0 + x1);
    EXPECT_FALSE(r.hit_round_cap);
  }
}

// Adversary aborting after receiving exactly `k` peer bits.
class AbortAfterBits final : public sim::IAdversary {
 public:
  AbortAfterBits(sim::PartyId corrupt, std::size_t k) : pid_(corrupt), k_(k) {}

  void setup(sim::AdvContext& ctx) override { ctx.corrupt(pid_); }

  std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                     const sim::AdvView& view) override {
    if (aborted_) return {};
    auto out = ctx.honest_step(pid_, addressed_to(view.delivered, pid_));
    const auto* party = dynamic_cast<const GradualParty*>(&ctx.party(pid_));
    if (party != nullptr && party->revealed_peer_bits() >= k_) {
      aborted_ = true;
      return {};  // withhold my next opening
    }
    return out;
  }

  [[nodiscard]] bool learned_output() const override { return false; }

 private:
  sim::PartyId pid_;
  std::size_t k_;
  bool aborted_ = false;
};

TEST(GradualRelease, AbortWithinBudgetStillRecovers) {
  // p2 aborts after learning 12 of 16 bits; the honest p1 then knows 12 and
  // has budget 8 >= 4 missing bits: both recover.
  Rng rng(10);
  const Bytes x0 = rng.bytes(2), x1 = rng.bytes(2);
  auto parties = make_gradual_parties(cfg_with(16, 8, 8), x0, x1, rng);
  sim::ExecutionOptions ecfg;
  ecfg.max_rounds = 64;
  sim::Engine e(std::move(parties), nullptr, std::make_unique<AbortAfterBits>(1, 12),
                rng.fork("engine"), ecfg);
  auto r = e.run();
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ(*r.outputs[0], x0 + x1);
}

TEST(GradualRelease, AbortBeyondBudgetLeavesBot) {
  // p2 aborts after 4 bits; honest p1 misses 12 > budget 8: ⊥.
  Rng rng(11);
  const Bytes x0 = rng.bytes(2), x1 = rng.bytes(2);
  auto parties = make_gradual_parties(cfg_with(16, 8, 8), x0, x1, rng);
  sim::ExecutionOptions ecfg;
  ecfg.max_rounds = 64;
  sim::Engine e(std::move(parties), nullptr, std::make_unique<AbortAfterBits>(1, 4),
                rng.fork("engine"), ecfg);
  auto r = e.run();
  EXPECT_FALSE(r.outputs[0].has_value());
}

TEST(GradualRelease, TamperedOpeningTreatedAsAbort) {
  class Tamper final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                       const sim::AdvView& view) override {
      auto out = ctx.honest_step(1, addressed_to(view.delivered, 1));
      for (auto& m : out) {
        // Flip a byte in every opening (commitments make this detectable).
        if (!m.payload.empty() && m.payload[0] == 81) m.payload.back() ^= 1;
      }
      return out;
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  Rng rng(12);
  const Bytes x0 = rng.bytes(2), x1 = rng.bytes(2);
  auto parties = make_gradual_parties(cfg_with(16, 0, 0), x0, x1, rng);
  sim::ExecutionOptions ecfg;
  ecfg.max_rounds = 64;
  sim::Engine e(std::move(parties), nullptr, std::make_unique<Tamper>(),
                rng.fork("engine"), ecfg);
  auto r = e.run();
  EXPECT_FALSE(r.outputs[0].has_value());  // zero budget, invalid opening: ⊥
}

TEST(GradualRelease, KnifeEdgeUtilityProfile) {
  // Lock-abort utility: γ10 when budgets are equal (the one-bit lead always
  // decides), γ11 when the honest budget exceeds the adversary's by > 1 bit.
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  auto factory = [](std::size_t adv_budget, std::size_t honest_budget) {
    return [adv_budget, honest_budget](Rng& rng) {
      rpd::RunSetup s;
      const Bytes x0 = rng.bytes(2), x1 = rng.bytes(2);
      s.parties = make_gradual_parties(cfg_with(16, honest_budget, adv_budget), x0, x1,
                                       rng);
      s.adversary = std::make_unique<adversary::LockAbortAdversary>(
          std::set<sim::PartyId>{1}, x0 + x1);
      s.engine.max_rounds = 64;
      return s;
    };
  };
  const auto equal = rpd::estimate_utility(factory(6, 6), gamma,
                                          rpd::EstimatorOptions{.runs = 300, .seed = 1});
  EXPECT_NEAR(equal.utility, gamma.g10, 0.02);
  const auto honest_ahead = rpd::estimate_utility(
      factory(4, 8), gamma, rpd::EstimatorOptions{.runs = 300, .seed = 2});
  EXPECT_NEAR(honest_ahead.utility, gamma.g11, 0.02);
}

}  // namespace
}  // namespace fairsfe::fair
