// Yao garbled-circuit substrate tests: correctness across circuits and
// inputs, agreement with GMW and plaintext evaluation, and abort behavior.
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "mpc/ot.h"
#include "mpc/yao.h"
#include "sim/engine.h"

namespace fairsfe::mpc {
namespace {

using circuit::bits_to_u64;
using circuit::u64_to_bits;

sim::ExecutionResult run_yao(const circuit::Circuit& c,
                             const std::vector<std::vector<bool>>& inputs,
                             std::uint64_t seed,
                             std::unique_ptr<sim::IAdversary> adv = nullptr) {
  Rng rng(seed);
  auto circuit = std::make_shared<const circuit::Circuit>(c);
  auto parties = make_yao_parties(circuit, inputs, rng);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 16;
  sim::Engine e(std::move(parties), std::make_unique<OtHub>(), std::move(adv),
                rng.fork("engine"), cfg);
  return e.run();
}

TEST(Yao, AndGateExhaustive) {
  const auto c = circuit::make_and_circuit();
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      auto r = run_yao(c, {{a != 0}, {b != 0}}, static_cast<std::uint64_t>(4 * a + b));
      ASSERT_TRUE(r.outputs[0].has_value()) << a << b;
      ASSERT_TRUE(r.outputs[1].has_value());
      EXPECT_EQ((*r.outputs[0])[0], a & b);
      EXPECT_EQ((*r.outputs[1])[0], a & b);
    }
  }
}

TEST(Yao, MillionairesMatchesPlaintext) {
  const auto c = circuit::make_millionaires_circuit(16);
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t a = rng.below(1 << 16);
    const std::uint64_t b = rng.below(1 << 16);
    auto r = run_yao(c, {u64_to_bits(a, 16), u64_to_bits(b, 16)},
                     100 + static_cast<std::uint64_t>(trial));
    ASSERT_TRUE(r.outputs[0].has_value());
    EXPECT_EQ(((*r.outputs[0])[0] & 1) != 0, a > b) << a << " vs " << b;
    EXPECT_EQ(*r.outputs[0], *r.outputs[1]);
  }
}

TEST(Yao, DeepArithmeticCircuit) {
  circuit::Builder bld(2);
  const auto x = bld.input(0, 12);
  const auto y = bld.input(1, 12);
  const auto sum = bld.add(x, y);
  bld.output(bld.mux_word(bld.gt(x, y), sum, bld.xor_word(x, y)));
  const auto c = bld.build();
  Rng rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t a = rng.below(1 << 12);
    const std::uint64_t b = rng.below(1 << 12);
    const auto expect = c.eval({u64_to_bits(a, 12), u64_to_bits(b, 12)});
    auto r = run_yao(c, {u64_to_bits(a, 12), u64_to_bits(b, 12)},
                     200 + static_cast<std::uint64_t>(trial));
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[1], circuit::bits_to_bytes(expect));
  }
}

TEST(Yao, SwapWithNotGates) {
  circuit::Builder bld(2);
  const auto x = bld.input(0, 8);
  const auto y = bld.input(1, 8);
  // NOT-heavy path: output ~x, ~y.
  for (const auto w : x) bld.output({bld.not_gate(w)});
  for (const auto w : y) bld.output({bld.not_gate(w)});
  const auto c = bld.build();
  auto r = run_yao(c, {u64_to_bits(0x0F, 8), u64_to_bits(0x33, 8)}, 42);
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ((*r.outputs[0])[0], 0xF0);
  EXPECT_EQ((*r.outputs[0])[1], 0xCC);
}

TEST(Yao, AgreesWithGmwOnRandomCircuits) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    circuit::Builder bld(2);
    const auto x = bld.input(0, 6);
    const auto y = bld.input(1, 6);
    bld.output(bld.add(bld.and_word(x, y), bld.xor_word(x, y)));
    bld.output({bld.eq(x, y)});
    const auto c = bld.build();
    Rng rng(seed + 700);
    const auto xa = u64_to_bits(rng.below(64), 6);
    const auto xb = u64_to_bits(rng.below(64), 6);
    const auto expect = circuit::bits_to_bytes(c.eval({xa, xb}));
    auto yao = run_yao(c, {xa, xb}, seed + 800);
    ASSERT_TRUE(yao.outputs[0].has_value());
    EXPECT_EQ(*yao.outputs[0], expect) << "seed " << seed;
  }
}

TEST(Yao, SilentGarblerAbortsEvaluator) {
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(0); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  auto r = run_yao(circuit::make_and_circuit(), {{true}, {true}}, 7,
                   std::make_unique<Silent>());
  EXPECT_FALSE(r.outputs[1].has_value());
}

TEST(Yao, SilentEvaluatorAbortsGarbler) {
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  auto r = run_yao(circuit::make_and_circuit(), {{true}, {true}}, 8,
                   std::make_unique<Silent>());
  EXPECT_FALSE(r.outputs[0].has_value());
}

TEST(Yao, EvaluatorCannotForgeOutputLabels) {
  // Evaluator behaves honestly but then reports garbage labels: the garbler
  // must reject (output ⊥), never accept a wrong value.
  class Forger final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                       const sim::AdvView& view) override {
      auto out = ctx.honest_step(1, addressed_to(view.delivered, 1));
      for (auto& m : out) {
        if (m.to == 0) {
          // Tamper with the label bytes (keep the frame).
          if (m.payload.size() > 8) m.payload[8] ^= 0xFF;
        }
      }
      return out;
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  auto r = run_yao(circuit::make_and_circuit(), {{true}, {true}}, 9,
                   std::make_unique<Forger>());
  EXPECT_FALSE(r.outputs[0].has_value());
}

}  // namespace
}  // namespace fairsfe::mpc
