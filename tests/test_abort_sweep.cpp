// Exhaustive abort-round sweep: an adversary that follows the protocol
// honestly and goes silent at round k, for every k. Two invariants must hold
// for every protocol and every abort point:
//   1. soundness — an honest party's output is always one of {actual y,
//      default-input evaluation, ⊥} (GK: any stream value), never a forged
//      or malformed value;
//   2. liveness — honest parties terminate well before the round cap.
#include <gtest/gtest.h>

#include "experiments/setups.h"
#include "fair/gk.h"
#include "fair/mixed.h"
#include "fair/opt2sfe.h"

namespace fairsfe {
namespace {

class SilentFromRound final : public sim::IAdversary {
 public:
  SilentFromRound(std::set<sim::PartyId> corrupt, int stop)
      : corrupt_(std::move(corrupt)), stop_(stop) {}

  void setup(sim::AdvContext& ctx) override {
    for (const auto pid : corrupt_) ctx.corrupt(pid);
  }

  std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                     const sim::AdvView& view) override {
    if (view.round >= stop_) return {};
    std::vector<sim::Message> out;
    for (const auto pid : ctx.corrupted()) {
      auto part = ctx.honest_step(pid, addressed_to(view.delivered, pid));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  [[nodiscard]] bool learned_output() const override { return false; }

 private:
  std::set<sim::PartyId> corrupt_;
  int stop_;
};

struct SweepCase {
  std::string name;
  std::size_t n;
  std::set<sim::PartyId> corrupt;
};

class AbortSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(AbortSweepTest, Opt2SfeSoundAtEveryAbortRound) {
  const int stop = GetParam();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(100 * static_cast<std::uint64_t>(stop) + seed);
    const mpc::SfeSpec spec = experiments::two_party_spec();
    const auto xs = experiments::random_inputs(2, rng);
    const Bytes actual = xs[0] + xs[1];
    for (sim::PartyId c : {0, 1}) {
      Rng run_rng = rng.fork("run");
      auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], run_rng);
      sim::ExecutionOptions cfg;
      cfg.max_rounds = 20;
      sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec),
                    std::make_unique<SilentFromRound>(std::set<sim::PartyId>{c}, stop),
                    run_rng.fork("engine"), cfg);
      const auto r = e.run();
      EXPECT_FALSE(r.hit_round_cap) << "stop=" << stop << " corrupt=" << c;
      const auto honest = static_cast<std::size_t>(1 - c);
      if (r.outputs[honest].has_value()) {
        const Bytes with_default =
            spec.eval_with_defaults(xs, {honest});  // peer replaced by default
        EXPECT_TRUE(*r.outputs[honest] == actual || *r.outputs[honest] == with_default)
            << "stop=" << stop << " corrupt=" << c << ": unsound output";
      }
    }
  }
}

TEST_P(AbortSweepTest, OptNSfeSoundAtEveryAbortRound) {
  const int stop = GetParam();
  const std::size_t n = 4;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(5000 + 100 * static_cast<std::uint64_t>(stop) + seed);
    const mpc::SfeSpec spec = experiments::nparty_spec(n);
    const auto xs = experiments::random_inputs(n, rng);
    Bytes actual;
    for (const auto& x : xs) actual = actual + x;
    auto inst = fair::make_optn_instance(spec, xs, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 20;
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality),
                  std::make_unique<SilentFromRound>(std::set<sim::PartyId>{0, 1}, stop), rng.fork("engine"),
                  cfg);
    const auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap);
    // All-or-nothing among honest parties: either every honest party has the
    // actual output or every honest party has ⊥ (the broadcast is atomic).
    std::size_t with_value = 0;
    for (std::size_t p = 2; p < n; ++p) {
      if (r.outputs[p].has_value()) {
        EXPECT_EQ(*r.outputs[p], actual) << "stop=" << stop;
        ++with_value;
      }
    }
    EXPECT_TRUE(with_value == 0 || with_value == n - 2)
        << "stop=" << stop << ": honest parties split";
  }
}

TEST_P(AbortSweepTest, HalfGmwSoundAtEveryAbortRound) {
  const int stop = GetParam();
  const std::size_t n = 4;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(9000 + 100 * static_cast<std::uint64_t>(stop) + seed);
    const mpc::SfeSpec spec = experiments::nparty_spec(n);
    const auto xs = experiments::random_inputs(n, rng);
    Bytes actual;
    for (const auto& x : xs) actual = actual + x;
    auto inst = fair::make_half_gmw_instance(spec, xs, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 20;
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality),
                  std::make_unique<SilentFromRound>(std::set<sim::PartyId>{0}, stop), rng.fork("engine"), cfg);
    const auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap);
    for (std::size_t p = 1; p < n; ++p) {
      if (r.outputs[p].has_value()) {
        EXPECT_EQ(*r.outputs[p], actual) << "stop=" << stop;
      }
    }
  }
}

TEST_P(AbortSweepTest, GkStreamValuesOnlyAtEveryAbortRound) {
  const int stop = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(13000 + 100 * static_cast<std::uint64_t>(stop) + seed);
    const fair::GkParams params = fair::make_gk_and_params(2);
    auto parties = fair::make_gk_parties(params, Bytes{1}, Bytes{1}, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(2 * params.cap() + 10);
    sim::Engine e(std::move(parties), std::make_unique<fair::ShareGenFunc>(params),
                  std::make_unique<SilentFromRound>(std::set<sim::PartyId>{0}, stop), rng.fork("engine"), cfg);
    const auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap);
    // Honest p2 always ends with a 1-byte AND value (possibly a fake draw).
    ASSERT_TRUE(r.outputs[1].has_value()) << "stop=" << stop;
    ASSERT_EQ(r.outputs[1]->size(), 1u);
    EXPECT_LE((*r.outputs[1])[0], 1) << "stop=" << stop;
  }
}

INSTANTIATE_TEST_SUITE_P(StopRounds, AbortSweepTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace fairsfe
