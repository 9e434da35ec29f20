// The offline/online phase split (DESIGN.md §10): golden three-way
// equivalence (inline / offline_ideal / offline_ot produce bit-identical
// utilities at every thread count), the ROT→Beaver reduction algebra, the
// triple-exhaustion FAIRSFE_CHECK contract, fault injection on the offline
// rounds failing closed, and the GmwConfig builder defaults.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "adversary/lock_abort.h"
#include "circuit/builder.h"
#include "mpc/gmw.h"
#include "mpc/preproc/provider.h"
#include "rpd/estimator.h"
#include "sim/engine.h"

namespace fairsfe::mpc {
namespace {

using preproc::PreprocMode;

// Rushing lock-abort against a GMW execution under `cfg`. Mode-independent
// body: the setup rng is consumed identically under every PreprocMode.
rpd::SetupFactory gmw_lock_abort(std::shared_ptr<const GmwConfig> cfg) {
  return [cfg](Rng& rng) {
    rpd::RunSetup s;
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < cfg->circuit.num_parties(); ++p) {
      const Bytes x = rng.bytes((cfg->circuit.input_width(p) + 7) / 8);
      inputs.push_back(circuit::bytes_to_bits(x, cfg->circuit.input_width(p)));
    }
    const Bytes y = circuit::bits_to_bytes(cfg->circuit.eval(inputs));
    s.parties = make_gmw_parties(cfg, inputs, rng);
    s.functionality = make_gmw_functionality(*cfg);
    s.adversary =
        std::make_unique<adversary::LockAbortAdversary>(std::set<sim::PartyId>{0}, y);
    s.bind_run = make_gmw_run_binder(s.parties);
    s.engine.max_rounds = 128;
    return s;
  };
}

std::shared_ptr<const GmwConfig> config_for(const circuit::Circuit& c,
                                            PreprocMode mode, std::size_t runs,
                                            std::uint64_t batch_seed) {
  GmwConfigBuilder b = GmwConfig::for_circuit(c);
  if (preproc::is_offline(mode)) {
    preproc::PreprocRequest req;
    req.parties = c.num_parties();
    req.triples = runs * GmwConfig::public_output(c).triples_per_run();
    Rng rng(batch_seed);
    b.with_preproc(mode, preproc::generate_batch(mode, req, rng));
  }
  return b.build_shared();
}

void expect_bit_identical(const rpd::UtilityEstimate& a, const rpd::UtilityEstimate& b,
                          const char* what) {
  EXPECT_EQ(a.utility, b.utility) << what;
  EXPECT_EQ(a.std_error, b.std_error) << what;
  EXPECT_EQ(a.event_freq, b.event_freq) << what;
  EXPECT_EQ(a.run_events, b.run_events) << what;
}

TEST(Preproc, ThreeWayEquivalenceAcrossThreadCounts) {
  // The golden contract: utilities are invariant in the PreprocMode AND in
  // the thread count — 9 estimates, one value.
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  constexpr std::size_t kRuns = 72;  // > one 64-run shard, so slices cross shards

  std::vector<rpd::UtilityEstimate> ests;
  for (const PreprocMode mode :
       {PreprocMode::kInline, PreprocMode::kOfflineIdeal, PreprocMode::kOfflineOt}) {
    const auto cfg = config_for(mill, mode, kRuns, 91);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rpd::EstimatorOptions opts;
      opts.runs = kRuns;
      opts.seed = 19;
      opts.threads = threads;
      ests.push_back(rpd::estimate_utility(gmw_lock_abort(cfg), gamma, opts));
    }
  }
  ASSERT_EQ(ests.size(), 9u);
  for (std::size_t i = 1; i < ests.size(); ++i) {
    expect_bit_identical(ests[0], ests[i], "estimate i vs inline/1-thread");
  }
  ASSERT_EQ(ests[0].run_events.size(), kRuns);
}

TEST(Preproc, HonestOfflineRunMatchesInlineOutputs) {
  // No adversary: every party's opened output must equal the circuit
  // evaluation under both phase structures, seed by seed.
  const circuit::Circuit max4 = circuit::make_max_circuit(4, 8);
  const auto inline_cfg = config_for(max4, PreprocMode::kInline, 0, 0);
  const auto offline_cfg = config_for(max4, PreprocMode::kOfflineIdeal, 8, 47);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::vector<std::optional<Bytes>> got[2];
    Bytes expect;
    for (int which = 0; which < 2; ++which) {
      const auto& cfg = which == 0 ? inline_cfg : offline_cfg;
      Rng rng(seed);
      std::vector<std::vector<bool>> inputs;
      for (std::size_t p = 0; p < 4; ++p) {
        inputs.push_back(circuit::u64_to_bits(rng.below(256), 8));
      }
      expect = circuit::bits_to_bytes(max4.eval(inputs));
      auto parties = make_gmw_parties(cfg, inputs, rng);
      if (which == 1) make_gmw_run_binder(parties)(seed);
      sim::Engine e(std::move(parties), make_gmw_functionality(*cfg), nullptr,
                    rng.fork("engine"));
      got[which] = e.run().outputs;
    }
    for (std::size_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(got[0][p].has_value()) << "inline seed=" << seed;
      ASSERT_TRUE(got[1][p].has_value()) << "offline seed=" << seed;
      EXPECT_EQ(*got[0][p], expect);
      EXPECT_EQ(*got[1][p], expect);
    }
  }
}

TEST(Preproc, RotToBeaverReductionSatisfiesTheRelation) {
  // Dealer-made ROTs in, triples out: ⊕c = ⊕a & ⊕b at every index, and the
  // consistency checker agrees.
  preproc::PreprocRequest req;
  req.parties = 2;
  req.triples = 0;
  req.rots = 256;
  Rng rng(7);
  preproc::IdealDealer dealer;
  const preproc::CorrelatedRandomness rots = dealer.generate(req, rng);
  const preproc::CorrelatedRandomness triples = preproc::triples_from_rots(rots, 256);
  ASSERT_EQ(triples.num_triples(), 256u);
  triples.check_consistent();
  int ones = 0;
  for (std::size_t t = 0; t < 256; ++t) {
    const bool a = triples.triple_a(0, t) != triples.triple_a(1, t);
    const bool b = triples.triple_b(0, t) != triples.triple_b(1, t);
    const bool c = triples.triple_c(0, t) != triples.triple_c(1, t);
    EXPECT_EQ(c, a && b) << "triple " << t;
    ones += c ? 1 : 0;
  }
  // a, b uniform => c = a&b is 1 about a quarter of the time; a degenerate
  // all-zero reduction would also pass the relation, so pin the distribution.
  EXPECT_GT(ones, 256 / 8);
}

TEST(Preproc, OtDrivenBatchMatchesDealerConsistency) {
  // Both providers satisfy the same contract on the same request shape (the
  // bits differ — different randomness — but both stores must verify).
  preproc::PreprocRequest req;
  req.parties = 3;
  req.triples = 64;
  Rng rng_a(11), rng_b(11);
  const auto dealt = preproc::IdealDealer().generate(req, rng_a);
  const auto driven = preproc::OtDrivenProvider().generate(req, rng_b);
  dealt.check_consistent();
  driven.check_consistent();
  ASSERT_EQ(driven.num_parties(), 3u);
  ASSERT_EQ(driven.num_triples(), 64u);
}

TEST(Preproc, FaultyOfflinePhaseFailsClosed) {
  // Fault injection dropping the offline OT traffic: the provider throws —
  // the online phase never starts from a partially-filled store, so faults
  // in the offline rounds cannot corrupt online results.
  sim::ExecutionOptions opts;
  sim::fault::FaultRule rule;
  rule.faults.drop = 1.0;
  opts.fault.rules = {rule};
  opts.fault.affect_func_channel = true;
  preproc::PreprocRequest req;
  req.parties = 2;
  req.triples = 16;
  Rng rng(3);
  EXPECT_THROW(preproc::OtDrivenProvider(opts).generate(req, rng),
               std::runtime_error);
}

TEST(Preproc, PartyChannelFaultsCannotTouchTheOfflinePhase) {
  // The offline phase is pure hybrid traffic; a plan that faults only
  // party-to-party channels (affect_func_channel unset) must leave the batch
  // byte-identical to the reliable engine's.
  sim::ExecutionOptions faulty;
  sim::fault::FaultRule rule;
  rule.faults.drop = 1.0;
  faulty.fault.rules = {rule};
  preproc::PreprocRequest req;
  req.parties = 2;
  req.triples = 32;
  Rng rng_a(5), rng_b(5);
  const auto reliable = preproc::OtDrivenProvider().generate(req, rng_a);
  const auto faulted = preproc::OtDrivenProvider(faulty).generate(req, rng_b);
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t t = 0; t < 32; ++t) {
      ASSERT_EQ(reliable.triple_a(p, t), faulted.triple_a(p, t));
      ASSERT_EQ(reliable.triple_b(p, t), faulted.triple_b(p, t));
      ASSERT_EQ(reliable.triple_c(p, t), faulted.triple_c(p, t));
    }
  }
}

TEST(Preproc, BuilderFillsDefaultsAndMatchesPublicOutput) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const GmwConfig built = GmwConfig::for_circuit(mill).build();
  const GmwConfig legacy = GmwConfig::public_output(mill);
  ASSERT_EQ(built.output_map.size(), mill.num_parties());
  ASSERT_NE(built.plan, nullptr);
  EXPECT_EQ(built.output_map, legacy.output_map);
  EXPECT_EQ(built.preproc_mode, PreprocMode::kInline);
  EXPECT_EQ(built.preproc, nullptr);
  EXPECT_EQ(built.triples_per_run(), mill.and_count());
  EXPECT_EQ(built.plan->num_and_gates(), mill.and_count());
}

using PreprocDeathTest = ::testing::Test;

TEST(PreprocDeathTest, ExhaustedTapeAbortsWithBudgetMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A batch holding one run's triples, asked to serve run index 1: the tape
  // runs dry mid-layer and the FAIRSFE_CHECK contract aborts the process.
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kOfflineIdeal, 1, 23);
  const auto overrun_slice_one = [&cfg] {
    Rng rng(0);
    std::vector<std::vector<bool>> inputs;
    inputs.push_back(circuit::u64_to_bits(100, 8));
    inputs.push_back(circuit::u64_to_bits(55, 8));
    auto parties = make_gmw_parties(cfg, inputs, rng);
    make_gmw_run_binder(parties)(1);  // slice 1 of a 1-run batch
    sim::Engine e(std::move(parties), make_gmw_functionality(*cfg), nullptr,
                  rng.fork("engine"));
    e.run();
  };
  EXPECT_DEATH(overrun_slice_one(), "exhausted");
}

}  // namespace
}  // namespace fairsfe::mpc
