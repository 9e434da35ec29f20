// Honest-execution correctness of every protocol in src/fair: with no
// adversary, all parties terminate with the correct output.
#include <gtest/gtest.h>

#include "fair/contract.h"
#include "fair/dummy_ideal.h"
#include "fair/gk.h"
#include "fair/leaky_and.h"
#include "fair/lemma18.h"
#include "fair/mixed.h"
#include "fair/opt2sfe.h"
#include "sim/engine.h"

namespace fairsfe::fair {
namespace {

Bytes concat_all(const std::vector<Bytes>& xs) {
  Bytes y;
  for (const Bytes& x : xs) y = y + x;
  return y;
}

std::vector<Bytes> random_inputs(std::size_t n, Rng& rng) {
  std::vector<Bytes> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.bytes(8));
  return xs;
}

sim::ExecutionResult run_instance(ProtocolInstance inst, Rng rng, int max_rounds = 32) {
  sim::ExecutionOptions cfg;
  cfg.max_rounds = max_rounds;
  sim::Engine e(std::move(inst.parties), std::move(inst.functionality), nullptr,
                std::move(rng), cfg);
  return e.run();
}

TEST(ContractProtocols, Pi1HonestBothGetContracts) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const auto xs = random_inputs(2, rng);
    auto parties = make_contract_parties(ContractVariant::kPi1, xs[0], xs[1], rng);
    auto r = sim::run_honest(std::move(parties), rng.fork("engine"));
    ASSERT_TRUE(r.outputs[0].has_value());
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], concat_all(xs));
    EXPECT_EQ(*r.outputs[1], concat_all(xs));
  }
}

TEST(ContractProtocols, Pi2HonestBothGetContracts) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(100 + seed);
    const auto xs = random_inputs(2, rng);
    auto parties = make_contract_parties(ContractVariant::kPi2, xs[0], xs[1], rng);
    auto r = sim::run_honest(std::move(parties), rng.fork("engine"));
    ASSERT_TRUE(r.outputs[0].has_value()) << "seed " << seed;
    ASSERT_TRUE(r.outputs[1].has_value()) << "seed " << seed;
    EXPECT_EQ(*r.outputs[0], concat_all(xs));
    EXPECT_EQ(*r.outputs[1], concat_all(xs));
  }
}

TEST(Opt2Sfe, HonestBothGetOutput) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(200 + seed);
    const mpc::SfeSpec spec = mpc::make_concat_spec(2, 8);
    const auto xs = random_inputs(2, rng);
    ProtocolInstance inst;
    inst.parties = make_opt2_parties(spec, xs[0], xs[1], rng);
    inst.functionality = std::make_unique<Opt2ShareFunc>(spec);
    auto r = run_instance(std::move(inst), rng.fork("engine"));
    ASSERT_TRUE(r.outputs[0].has_value()) << "seed " << seed;
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], concat_all(xs));
    EXPECT_EQ(*r.outputs[1], concat_all(xs));
    EXPECT_FALSE(r.hit_round_cap);
  }
}

TEST(Opt2Sfe, WorksForMillionaires) {
  Rng rng(42);
  const mpc::SfeSpec spec = mpc::make_millionaires_spec();
  Writer w1, w2;
  w1.u64(900);
  w2.u64(1000);
  ProtocolInstance inst;
  inst.parties = make_opt2_parties(spec, w1.bytes(), w2.bytes(), rng);
  inst.functionality = std::make_unique<Opt2ShareFunc>(spec);
  auto r = run_instance(std::move(inst), rng.fork("engine"));
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ(*r.outputs[0], Bytes{0});  // 900 > 1000 is false
}

class OptNHonestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OptNHonestTest, AllPartiesGetOutput) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(300 + 10 * n + seed);
    const mpc::SfeSpec spec = mpc::make_concat_spec(n, 8);
    const auto xs = random_inputs(n, rng);
    auto r = run_instance(make_optn_instance(spec, xs, rng), rng.fork("engine"));
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_TRUE(r.outputs[p].has_value()) << "n=" << n << " seed=" << seed << " p=" << p;
      EXPECT_EQ(*r.outputs[p], concat_all(xs));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PartySweep, OptNHonestTest, ::testing::Values(2, 3, 4, 5, 6, 8));

class HalfGmwHonestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HalfGmwHonestTest, AllPartiesGetOutput) {
  const std::size_t n = GetParam();
  Rng rng(400 + n);
  const mpc::SfeSpec spec = mpc::make_concat_spec(n, 8);
  const auto xs = random_inputs(n, rng);
  auto r = run_instance(make_half_gmw_instance(spec, xs, rng), rng.fork("engine"));
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_TRUE(r.outputs[p].has_value()) << "n=" << n << " p=" << p;
    EXPECT_EQ(*r.outputs[p], concat_all(xs));
  }
}

INSTANTIATE_TEST_SUITE_P(PartySweep, HalfGmwHonestTest, ::testing::Values(3, 4, 5, 7, 8));

TEST(Lemma18Protocol, HonestAllGetOutput) {
  for (std::size_t n : {3u, 5u}) {
    Rng rng(500 + n);
    const mpc::SfeSpec spec = mpc::make_concat_spec(n, 8);
    const auto xs = random_inputs(n, rng);
    auto r = run_instance(make_lemma18_instance(spec, xs, rng), rng.fork("engine"));
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_TRUE(r.outputs[p].has_value()) << "n=" << n << " p=" << p;
      EXPECT_EQ(*r.outputs[p], concat_all(xs));
    }
  }
}

TEST(MixedProtocol, DispatchesOnParity) {
  for (std::size_t n : {3u, 4u}) {
    Rng rng(600 + n);
    const mpc::SfeSpec spec = mpc::make_concat_spec(n, 8);
    const auto xs = random_inputs(n, rng);
    auto r = run_instance(make_mixed_instance(spec, xs, rng), rng.fork("engine"));
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_TRUE(r.outputs[p].has_value());
      EXPECT_EQ(*r.outputs[p], concat_all(xs));
    }
  }
}

TEST(DummyIdeal, HonestAllGetOutput) {
  Rng rng(700);
  const mpc::SfeSpec spec = mpc::make_concat_spec(3, 8);
  const auto xs = random_inputs(3, rng);
  ProtocolInstance inst;
  inst.parties = make_dummy_parties(xs);
  inst.functionality = std::make_unique<mpc::SfeFunc>(spec, mpc::SfeMode::kFair);
  auto r = run_instance(std::move(inst), rng.fork("engine"));
  for (std::size_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(r.outputs[p].has_value());
    EXPECT_EQ(*r.outputs[p], concat_all(xs));
  }
}

class GkHonestTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GkHonestTest, HonestBothGetAndOutput) {
  const std::size_t p = GetParam();
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      Rng rng(800 + 100 * p + static_cast<std::uint64_t>(2 * a + b));
      GkParams params = make_gk_and_params(p);
      ProtocolInstance inst;
      inst.parties = make_gk_parties(params, Bytes{static_cast<std::uint8_t>(a)},
                                     Bytes{static_cast<std::uint8_t>(b)}, rng);
      inst.functionality = std::make_unique<ShareGenFunc>(params);
      auto r = run_instance(std::move(inst), rng.fork("engine"),
                            static_cast<int>(2 * params.cap() + 10));
      ASSERT_TRUE(r.outputs[0].has_value()) << "p=" << p << " a=" << a << " b=" << b;
      ASSERT_TRUE(r.outputs[1].has_value());
      EXPECT_EQ(*r.outputs[0], Bytes{static_cast<std::uint8_t>(a & b)});
      EXPECT_EQ(*r.outputs[1], Bytes{static_cast<std::uint8_t>(a & b)});
      EXPECT_FALSE(r.hit_round_cap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PSweep, GkHonestTest, ::testing::Values(2, 3, 4));

TEST(GkProtocol, PolyRangeVariantHonest) {
  Rng rng(900);
  GkParams params = make_gk_and_params(2);
  params.variant = GkParams::Variant::kPolyRange;
  params.sample_range = [](Rng& r) { return Bytes{static_cast<std::uint8_t>(r.bit())}; };
  ProtocolInstance inst;
  inst.parties = make_gk_parties(params, Bytes{1}, Bytes{1}, rng);
  inst.functionality = std::make_unique<ShareGenFunc>(params);
  auto r = run_instance(std::move(inst), rng.fork("engine"),
                        static_cast<int>(2 * params.cap() + 10));
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ(*r.outputs[0], Bytes{1});
  EXPECT_EQ(*r.outputs[1], Bytes{1});
}

TEST(LeakyAnd, HonestBothGetAndOutput) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      Rng rng(1000 + static_cast<std::uint64_t>(2 * a + b));
      ProtocolInstance inst;
      inst.parties = make_leaky_and_parties(Bytes{static_cast<std::uint8_t>(a)},
                                            Bytes{static_cast<std::uint8_t>(b)}, rng);
      inst.functionality = make_leaky_and_functionality(nullptr);
      auto r = run_instance(std::move(inst), rng.fork("engine"), 200);
      ASSERT_TRUE(r.outputs[0].has_value()) << a << "," << b;
      EXPECT_EQ(*r.outputs[0], Bytes{static_cast<std::uint8_t>(a & b)});
      EXPECT_EQ(*r.outputs[1], Bytes{static_cast<std::uint8_t>(a & b)});
    }
  }
}

TEST(ShareGen, AbortedInputGivesDefaultEvaluation) {
  // If one party never sends input to ShareGen, the other falls back to the
  // default-input local evaluation.
  Rng rng(1100);
  GkParams params = make_gk_and_params(2);
  ProtocolInstance inst;
  inst.parties = make_gk_parties(params, Bytes{1}, Bytes{1}, rng);
  // Adversary: corrupt p2, never speak.
  class Silent final : public sim::IAdversary {
   public:
    void setup(sim::AdvContext& ctx) override { ctx.corrupt(1); }
    std::vector<sim::Message> on_round(sim::AdvContext&, const sim::AdvView&) override {
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  inst.functionality = std::make_unique<ShareGenFunc>(params);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 40;
  sim::Engine e(std::move(inst.parties), std::move(inst.functionality),
                std::make_unique<Silent>(), rng.fork("engine"), cfg);
  auto r = e.run();
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ(*r.outputs[0], Bytes{0});  // 1 AND default(0)
}

}  // namespace
}  // namespace fairsfe::fair
