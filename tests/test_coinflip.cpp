// Coin-flipping tests: honest agreement and uniformity, the classic 1/4
// single-flip bias, and the bias decay with the round count (Cleve [10]).
#include <gtest/gtest.h>

#include "fair/coinflip.h"
#include "sim/engine.h"

namespace fairsfe::fair {
namespace {

double measure_target_rate(std::size_t rounds, bool eager, std::size_t runs,
                           std::uint64_t seed0) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    Rng rng(seed0 + i);
    auto parties = make_coinflip_parties(rounds, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(2 * rounds + 8);
    sim::Engine e(std::move(parties), nullptr,
                  std::make_unique<CoinBiasAdversary>(0, /*target=*/true, eager),
                  rng.fork("engine"), cfg);
    auto r = e.run();
    if (r.outputs[1] && (*r.outputs[1])[0] == 1) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(runs);
}

TEST(CoinFlip, HonestPartiesAgree) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    auto parties = make_coinflip_parties(5, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 24;
    auto r = sim::run_honest(std::move(parties), rng.fork("engine"), cfg);
    ASSERT_TRUE(r.outputs[0].has_value());
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], *r.outputs[1]);
    EXPECT_LE((*r.outputs[0])[0], 1);
  }
}

TEST(CoinFlip, HonestOutputIsUniform) {
  std::size_t ones = 0;
  const std::size_t runs = 1000;
  for (std::uint64_t seed = 0; seed < runs; ++seed) {
    Rng rng(10000 + seed);
    auto parties = make_coinflip_parties(1, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 8;
    auto r = sim::run_honest(std::move(parties), rng.fork("engine"), cfg);
    if ((*r.outputs[0])[0] == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / runs, 0.5, 0.05);
}

TEST(CoinFlip, SingleFlipBiasIsExactlyQuarter) {
  // Eager abort on one flip: Pr[target] = 1/2 + 1/4 (the classic bound).
  const double rate = measure_target_rate(1, /*eager=*/true, 3000, 20000);
  EXPECT_NEAR(rate, 0.75, 0.03);
}

TEST(CoinFlip, BiasDecaysWithRounds) {
  const double b1 = measure_target_rate(1, false, 1500, 30000) - 0.5;
  const double b9 = measure_target_rate(9, false, 1500, 40000) - 0.5;
  const double b33 = measure_target_rate(33, false, 1500, 50000) - 0.5;
  EXPECT_GT(b1, b9);
  EXPECT_GT(b9, b33);
  // Cleve: bias can never vanish (Ω(1/r)); the greedy attack keeps a
  // noticeable edge even at r = 33.
  EXPECT_GT(b33, 0.01);
}

TEST(CoinFlip, SilentPeerStillYieldsOutput) {
  // Cleve's model demands a bit even under total abort.
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(0); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  Rng rng(7);
  auto parties = make_coinflip_parties(3, rng);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 16;
  sim::Engine e(std::move(parties), nullptr, std::make_unique<Silent>(),
                rng.fork("engine"), cfg);
  auto r = e.run();
  ASSERT_TRUE(r.outputs[1].has_value());
  EXPECT_LE((*r.outputs[1])[0], 1);
}

}  // namespace
}  // namespace fairsfe::fair
