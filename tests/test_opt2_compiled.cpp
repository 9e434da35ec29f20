// End-to-end tests for the Yao-compiled ΠOpt2SFE: honest correctness, the
// Theorem 3 utility (identical to the hybrid protocol — the composition
// claim), and abort handling.
#include <gtest/gtest.h>

#include "adversary/lock_abort.h"
#include "adversary/strategies.h"
#include "fair/opt2_compiled.h"
#include "mpc/ot.h"
#include "rpd/estimator.h"

namespace fairsfe::fair {
namespace {

using circuit::bits_to_u64;
using circuit::u64_to_bits;

std::shared_ptr<const circuit::Circuit> concat16() {
  return std::make_shared<const circuit::Circuit>(circuit::make_concat_circuit(2, 8));
}

sim::ExecutionResult run_compiled(std::shared_ptr<const circuit::Circuit> base,
                                  const std::vector<std::vector<bool>>& inputs,
                                  std::uint64_t seed,
                                  std::unique_ptr<sim::IAdversary> adv = nullptr) {
  Rng rng(seed);
  auto parties = make_opt2_compiled_parties(base, inputs, rng);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 24;
  sim::Engine e(std::move(parties), std::make_unique<mpc::OtHub>(), std::move(adv),
                rng.fork("engine"), cfg);
  return e.run();
}

TEST(Opt2Compiled, FPrimeCircuitShape) {
  const auto base = circuit::make_concat_circuit(2, 8);
  const mpc::YaoConfig cfg = make_opt2_fprime(base);
  // Inputs: p0 = 8 + 16 mask + 1 coin; p1 = 8 + 1 coin.
  EXPECT_EQ(cfg.circuit->input_width(0), 8u + 16u + 1u);
  EXPECT_EQ(cfg.circuit->input_width(1), 8u + 1u);
  EXPECT_EQ(cfg.circuit->outputs().size(), 17u);
  EXPECT_EQ(cfg.output_map[0], (std::vector<std::size_t>{16}));  // p0: î only
  EXPECT_EQ(cfg.output_map[1].size(), 17u);
}

TEST(Opt2Compiled, FPrimePlaintextSemantics) {
  const auto base = circuit::make_concat_circuit(2, 4);
  const mpc::YaoConfig cfg = make_opt2_fprime(base);
  // x0 = 0b1010, x1 = 0b0110, mask = 0b10110001, coins 1 and 0.
  std::vector<bool> in0 = u64_to_bits(0b1010, 4);
  const auto mask = u64_to_bits(0b10110001, 8);
  in0.insert(in0.end(), mask.begin(), mask.end());
  in0.push_back(true);
  std::vector<bool> in1 = u64_to_bits(0b0110, 4);
  in1.push_back(false);
  const auto out = cfg.circuit->eval({in0, in1});
  ASSERT_EQ(out.size(), 9u);
  // Blinded output = (x0 ‖ x1) ⊕ mask.
  const std::uint64_t y = 0b1010u | (0b0110u << 4);
  EXPECT_EQ(bits_to_u64({out.begin(), out.begin() + 8}), y ^ 0b10110001u);
  EXPECT_TRUE(out[8]);  // î = 1 ⊕ 0
}

TEST(Opt2Compiled, HonestBothGetOutput) {
  const auto base = concat16();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed + 50);
    const auto a = u64_to_bits(rng.below(256), 8);
    const auto b = u64_to_bits(rng.below(256), 8);
    const auto expect = circuit::bits_to_bytes(base->eval({a, b}));
    auto r = run_compiled(base, {a, b}, seed);
    ASSERT_TRUE(r.outputs[0].has_value()) << "seed " << seed;
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], expect);
    EXPECT_EQ(*r.outputs[1], expect);
    EXPECT_FALSE(r.hit_round_cap);
  }
}

TEST(Opt2Compiled, MillionairesWorks) {
  auto base =
      std::make_shared<const circuit::Circuit>(circuit::make_millionaires_circuit(8));
  auto r = run_compiled(base, {u64_to_bits(200, 8), u64_to_bits(100, 8)}, 99);
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ((*r.outputs[0])[0] & 1, 1);
}

TEST(Opt2Compiled, SilentPeerGivesDefaultEvaluation) {
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  const auto base = concat16();
  const auto a = u64_to_bits(0xAB, 8);
  const auto b = u64_to_bits(0xCD, 8);
  auto r = run_compiled(base, {a, b}, 7, std::make_unique<Silent>());
  ASSERT_TRUE(r.outputs[0].has_value());
  // Default-input evaluation: x1 substituted by zero.
  EXPECT_EQ(*r.outputs[0], circuit::bits_to_bytes(base->eval({a, std::vector<bool>(8)})));
}

TEST(Opt2Compiled, LockAbortMatchesHybridUtility) {
  // The composition claim, as a regression test: the measured utility of the
  // compiled protocol equals the hybrid protocol's (γ10+γ11)/2.
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto base = concat16();
  const auto plan = Opt2CompiledPlan::build(base);
  auto factory = [base, plan](sim::PartyId corrupt) {
    return [base, plan, corrupt](Rng& rng) {
      rpd::RunSetup s;
      const auto a = u64_to_bits(rng.below(256), 8);
      const auto b = u64_to_bits(rng.below(256), 8);
      const Bytes y = circuit::bits_to_bytes(base->eval({a, b}));
      s.parties = make_opt2_compiled_parties(plan, {a, b}, rng);
      s.functionality = std::make_unique<mpc::OtHub>();
      s.adversary = std::make_unique<adversary::LockAbortAdversary>(
          std::set<sim::PartyId>{corrupt}, y);
      s.engine.max_rounds = 24;
      return s;
    };
  };
  for (sim::PartyId c : {0, 1}) {
    const auto est = rpd::estimate_utility(
        factory(c), gamma,
        rpd::EstimatorOptions{.runs = 800, .seed = 300 + static_cast<std::uint64_t>(c)});
    EXPECT_NEAR(est.utility, gamma.two_party_opt_bound(), est.margin() + 0.04)
        << "corrupt p" << c;
    EXPECT_NEAR(est.freq(rpd::FairnessEvent::kE10), 0.5, 0.07);
  }
}

}  // namespace
}  // namespace fairsfe::fair
