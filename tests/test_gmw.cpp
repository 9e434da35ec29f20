// GMW protocol tests: correctness across circuits, party counts, private
// outputs, and abort behavior.
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "mpc/gmw.h"
#include "mpc/ot.h"
#include "sim/engine.h"

namespace fairsfe::mpc {
namespace {

using circuit::bits_to_u64;
using circuit::u64_to_bits;

sim::ExecutionResult run_gmw(std::shared_ptr<const GmwConfig> cfg,
                             const std::vector<std::vector<bool>>& inputs,
                             std::uint64_t seed,
                             std::unique_ptr<sim::IAdversary> adv = nullptr) {
  Rng rng(seed);
  auto parties = make_gmw_parties(cfg, inputs, rng);
  sim::Engine e(std::move(parties), std::make_unique<OtHub>(), std::move(adv),
                rng.fork("engine"));
  return e.run();
}

TEST(Gmw, TwoPartyAndExhaustive) {
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_and_circuit()));
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      auto r = run_gmw(cfg, {{a != 0}, {b != 0}}, static_cast<std::uint64_t>(10 * a + b));
      for (int p = 0; p < 2; ++p) {
        ASSERT_TRUE(r.outputs[static_cast<std::size_t>(p)].has_value());
        EXPECT_EQ((*r.outputs[static_cast<std::size_t>(p)])[0], (a & b));
      }
    }
  }
}

TEST(Gmw, MillionairesMatchesPlaintext) {
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_millionaires_circuit(8)));
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t a = rng.below(256);
    const std::uint64_t b = rng.below(256);
    auto r = run_gmw(cfg, {u64_to_bits(a, 8), u64_to_bits(b, 8)},
                     1000 + static_cast<std::uint64_t>(trial));
    ASSERT_TRUE(r.outputs[0].has_value());
    EXPECT_EQ(((*r.outputs[0])[0] & 1) != 0, a > b) << a << " vs " << b;
  }
}

TEST(Gmw, AdditionDeepCircuit) {
  circuit::Builder bld(2);
  const auto x = bld.input(0, 8);
  const auto y = bld.input(1, 8);
  bld.output(bld.add(x, y));
  auto cfg = std::make_shared<const GmwConfig>(GmwConfig::public_output(bld.build()));
  auto r = run_gmw(cfg, {u64_to_bits(123, 8), u64_to_bits(45, 8)}, 5);
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ((*r.outputs[0])[0], (123 + 45) % 256);
  EXPECT_EQ(*r.outputs[0], *r.outputs[1]);
}

class GmwPartyCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GmwPartyCountTest, MaxCircuitManyParties) {
  const std::size_t n = GetParam();
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_max_circuit(n, 6)));
  Rng rng(n);
  std::vector<std::vector<bool>> inputs;
  std::uint64_t expect = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint64_t v = rng.below(64);
    expect = std::max(expect, v);
    inputs.push_back(u64_to_bits(v, 6));
  }
  auto r = run_gmw(cfg, inputs, 42 + n);
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_TRUE(r.outputs[p].has_value());
    EXPECT_EQ(bits_to_u64(circuit::bytes_to_bits(*r.outputs[p], 6)), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(PartySweep, GmwPartyCountTest, ::testing::Values(2, 3, 4, 5, 7));

TEST(Gmw, PrivateOutputsOnlyReachOwner) {
  // Swap circuit with output_map giving each party only its own half.
  circuit::Circuit c = circuit::make_swap_circuit(8);
  GmwConfig cfg{.circuit = c, .output_map = {{}, {}}};
  for (std::size_t i = 0; i < 8; ++i) cfg.output_map[0].push_back(i);        // x2 -> p0
  for (std::size_t i = 8; i < 16; ++i) cfg.output_map[1].push_back(i);       // x1 -> p1
  auto shared = std::make_shared<const GmwConfig>(std::move(cfg));
  auto r = run_gmw(shared, {u64_to_bits(0xAB, 8), u64_to_bits(0xCD, 8)}, 9);
  ASSERT_TRUE(r.outputs[0].has_value());
  ASSERT_TRUE(r.outputs[1].has_value());
  EXPECT_EQ((*r.outputs[0])[0], 0xCD);  // p0 learns x2
  EXPECT_EQ((*r.outputs[1])[0], 0xAB);  // p1 learns x1
}

TEST(Gmw, SilentCorruptedPartyCausesBotNotWrongValue) {
  // Adversary corrupts party 1 and never sends anything: honest party must
  // output ⊥, never a wrong value (security with abort).
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_and_circuit()));
  auto r = run_gmw(cfg, {{true}, {true}}, 11, std::make_unique<Silent>());
  EXPECT_FALSE(r.outputs[0].has_value());
}

TEST(Gmw, MidProtocolAbortCausesBot) {
  // Adversary behaves honestly through input sharing, then goes silent during
  // the AND layer: honest party aborts.
  class AbortAtRound final : public sim::IAdversary {
   public:
    explicit AbortAtRound(int stop) : stop_(stop) {}
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                       const sim::AdvView& view) override {
      if (view.round >= stop_) return {};
      return ctx.honest_step(1, view.delivered);
    }
    [[nodiscard]] bool learned_output() const override { return false; }

   private:
    int stop_;
  };
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_and_circuit()));
  for (int stop = 1; stop <= 3; ++stop) {
    auto r = run_gmw(cfg, {{true}, {false}}, 100 + static_cast<std::uint64_t>(stop),
                     std::make_unique<AbortAtRound>(stop));
    EXPECT_FALSE(r.outputs[0].has_value()) << "stop at round " << stop;
  }
}

TEST(Gmw, WrongInputWidthThrows) {
  auto cfg = std::make_shared<const GmwConfig>(
      GmwConfig::public_output(circuit::make_and_circuit()));
  Rng rng(1);
  EXPECT_THROW(GmwParty(0, cfg, {true, false}, rng.fork("p")), std::invalid_argument);
}

TEST(Gmw, RandomizedCircuitSweepMatchesPlaintext) {
  // Property: GMW output == plaintext evaluation on random circuits made of
  // the builder's word ops.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 500);
    circuit::Builder bld(3);
    const auto a = bld.input(0, 5);
    const auto b = bld.input(1, 5);
    const auto c = bld.input(2, 5);
    const auto sum = bld.add(a, bld.xor_word(b, c));
    const auto sel = bld.gt(a, b);
    bld.output(bld.mux_word(sel, sum, bld.and_word(b, c)));
    auto cfg = std::make_shared<const GmwConfig>(GmwConfig::public_output(bld.build()));

    std::vector<std::vector<bool>> inputs;
    for (int p = 0; p < 3; ++p) inputs.push_back(u64_to_bits(rng.below(32), 5));
    const auto expect = cfg->circuit.eval(inputs);
    auto r = run_gmw(cfg, inputs, seed + 900);
    ASSERT_TRUE(r.outputs[0].has_value());
    EXPECT_EQ(*r.outputs[0], circuit::bits_to_bytes(expect)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fairsfe::mpc
