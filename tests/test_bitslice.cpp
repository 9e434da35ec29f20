// Bit-sliced execution (DESIGN.md §11): the transpose boundary, the sliced
// plaintext evaluator, the word-parallel GMW runner, and CI-driven sequential
// stopping. The load-bearing claims:
//
//   1. transpose_to_words / transpose_from_words are exact inverses and the
//      lane orientation is "bit l of word k == run l's bit k".
//   2. The sliced GMW path is BIT-IDENTICAL to the scalar engine — same
//      utility, std_error, event frequencies, and per-run event trace — for
//      every PreprocMode and every thread count, because run i's randomness
//      is a pure function of (seed, i) on both paths.
//   3. A crash-divergent run is masked out of its lane set without perturbing
//      its 63 lane-mates.
//   4. Sequential stopping halts at a shard boundary that is a pure function
//      of (seed, target_ci) — invariant under threads.
//
// All suites here match the tier-1 filter (Bitslice*) in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/builder.h"
#include "circuit/sliced.h"
#include "experiments/setups.h"
#include "mpc/gmw_sliced.h"
#include "mpc/preproc/provider.h"
#include "rpd/estimator.h"
#include "util/bitmat.h"

namespace fairsfe {
namespace {

using mpc::preproc::PreprocMode;
using util::kLaneWidth;
using util::LaneWord;

// ------------------------------------------------------------- transpose

std::vector<std::vector<bool>> random_rows(Rng& rng, std::size_t rows,
                                           std::size_t bits) {
  std::vector<std::vector<bool>> out(rows);
  for (auto& row : out) {
    row.reserve(bits);
    for (std::size_t k = 0; k < bits; ++k) row.push_back(rng.bit());
  }
  return out;
}

TEST(BitsliceTranspose, RoundTripFullLaneSet) {
  Rng rng(101);
  const auto rows = random_rows(rng, kLaneWidth, 70);
  const auto words = util::transpose_to_words(rows);
  ASSERT_EQ(words.size(), 70u);
  EXPECT_EQ(util::transpose_from_words(words, kLaneWidth), rows);
}

TEST(BitsliceTranspose, RoundTripRaggedLaneSet) {
  Rng rng(102);
  const auto rows = random_rows(rng, 5, 70);
  const auto words = util::transpose_to_words(rows);
  ASSERT_EQ(words.size(), 70u);
  EXPECT_EQ(util::transpose_from_words(words, 5), rows);
  // Lanes beyond rows.size() are zero.
  for (const LaneWord w : words) EXPECT_EQ(w >> 5, 0u);
}

TEST(BitsliceTranspose, OrientationIsLanePerRun) {
  // Row (= run) 3 has bit 5 set, nothing else: exactly word 5, lane 3.
  std::vector<std::vector<bool>> rows(7, std::vector<bool>(9, false));
  rows[3][5] = true;
  const auto words = util::transpose_to_words(rows);
  ASSERT_EQ(words.size(), 9u);
  for (std::size_t k = 0; k < words.size(); ++k) {
    EXPECT_EQ(words[k], k == 5 ? LaneWord{1} << 3 : LaneWord{0});
  }
}

TEST(BitsliceTranspose, Block64x64IsAnExactInverse) {
  Rng rng(103);
  std::uint64_t m[64];
  for (auto& w : m) w = rng.u64();
  std::uint64_t t[64];
  for (std::size_t r = 0; r < 64; ++r) t[r] = m[r];
  util::transpose64x64(t);
  // Orientation: bit c of m[r] lands at bit r of t[c].
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      EXPECT_EQ((t[c] >> r) & 1, (m[r] >> c) & 1);
    }
  }
  util::transpose64x64(t);  // involution
  for (std::size_t r = 0; r < 64; ++r) EXPECT_EQ(t[r], m[r]);
}

// ------------------------------------------------------ sliced evaluator

TEST(BitsliceEval, MatchesTheScalarReferenceEvaluator) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  Rng rng(104);
  // One bit-row set per party: lane l carries run l's inputs.
  std::vector<std::vector<std::vector<bool>>> per_party(c.num_parties());
  for (std::size_t p = 0; p < c.num_parties(); ++p) {
    per_party[p] = random_rows(rng, kLaneWidth, c.input_width(p));
  }
  std::vector<std::vector<LaneWord>> input_words;
  for (const auto& rows : per_party) {
    input_words.push_back(util::transpose_to_words(rows));
  }
  const auto out_words = circuit::eval_sliced(c, input_words);
  ASSERT_EQ(out_words.size(), c.outputs().size());
  for (std::size_t l = 0; l < kLaneWidth; ++l) {
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < c.num_parties(); ++p) inputs.push_back(per_party[p][l]);
    const std::vector<bool> ref = c.eval(inputs);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(((out_words[k] >> l) & 1) != 0, ref[k]) << "lane " << l << " bit " << k;
    }
  }
}

// --------------------------------------------------------- sliced GMW

void expect_bit_identical(const rpd::UtilityEstimate& a,
                          const rpd::UtilityEstimate& b) {
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.event_freq, b.event_freq);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.run_events, b.run_events);
}

// Every 8th run crashes one party right before an AND layer (cycling the
// depth including the output exchange) — same shape as scenario E20.
mpc::CrashScheduleFn crash_every_8th(std::size_t layers) {
  return [layers](std::size_t i) -> std::optional<mpc::CrashPlan> {
    if (i % 8 != 0) return std::nullopt;
    return mpc::CrashPlan{.party = (i / 8) % 2, .layer = (i / 8) % (layers + 1)};
  };
}

std::shared_ptr<const mpc::GmwConfig> config_for(const circuit::Circuit& c,
                                                 PreprocMode mode,
                                                 std::size_t runs,
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

rpd::EstimatorOptions opts_with(std::size_t runs, std::uint64_t seed, std::size_t threads,
                                std::size_t lanes = 1, double target_ci = 0.0) {
  rpd::EstimatorOptions o;
  o.runs = runs;
  o.seed = seed;
  o.threads = threads;
  o.lanes = lanes;
  o.target_ci = target_ci;
  return o;
}

TEST(BitsliceGmw, BitIdenticalToScalarAcrossPreprocModesAndThreads) {
  // Two-party millionaires and the four-party max of 8-bit inputs.
  const std::size_t runs = 192;
  for (const circuit::Circuit& c :
       {circuit::make_millionaires_circuit(8), circuit::make_max_circuit(4, 8)}) {
    SCOPED_TRACE(c.num_parties());
    const std::size_t layers = mpc::GmwConfig::public_output(c).plan->num_and_layers();
    for (const PreprocMode mode : {PreprocMode::kInline, PreprocMode::kOfflineIdeal,
                                   PreprocMode::kOfflineOt}) {
      const auto cfg = config_for(c, mode, runs, 900);
      const experiments::GmwHonestPair pair =
          experiments::gmw_honest_pair(cfg, crash_every_8th(layers));
      const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
      const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
      const auto scalar =
          rpd::estimate_utility(target, gamma, opts_with(runs, 17, 1, 1));
      EXPECT_EQ(scalar.lanes, 1u);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const auto sliced = rpd::estimate_utility(
            target, gamma, opts_with(runs, 17, threads, 64));
        EXPECT_EQ(sliced.lanes, kLaneWidth);
        expect_bit_identical(scalar, sliced);
      }
      // The crash schedule is deterministic, so the event mix is exact.
      ASSERT_EQ(scalar.run_events.size(), runs);
      for (std::size_t i = 0; i < runs; ++i) {
        EXPECT_EQ(scalar.run_events[i],
                  i % 8 == 0 ? rpd::FairnessEvent::kE00 : rpd::FairnessEvent::kE01)
            << "run " << i;
      }
    }
  }
}

TEST(BitsliceGmw, SlicedOutputsMatchTheRealEngineByValue) {
  // Event classification is value-independent, so the bit-identity assertions
  // above would survive an input scramble in the transpose boundary. This one
  // would not: it compares the opened output BYTES of every lane against a
  // real engine execution of the same run index.
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, kLaneWidth, 907);
  const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(cfg);
  std::vector<sim::ExecutionResult> sliced(kLaneWidth);
  const std::uint64_t seed = 41;
  mpc::SlicedGmwRunner::InputsFn draw = [cfg](Rng& rng) {
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < cfg->circuit.num_parties(); ++p) {
      const std::size_t width = cfg->circuit.input_width(p);
      inputs.push_back(circuit::bytes_to_bits(rng.bytes((width + 7) / 8), width));
    }
    return inputs;
  };
  mpc::SlicedGmwRunner(cfg, draw).run_batch(0, kLaneWidth, seed, sliced);
  const Rng master(seed);
  for (std::size_t i = 0; i < kLaneWidth; ++i) {
    // The estimator's per-run derivation, replayed by hand.
    Rng run_rng = master.fork_at("run", i);
    Rng setup_rng = run_rng.fork("setup");
    rpd::RunSetup setup = pair.factory(setup_rng);
    if (setup.bind_run) setup.bind_run(i);
    const sim::ExecutionResult ref =
        rpd::execute(std::move(setup), run_rng.fork("engine"));
    ASSERT_EQ(sliced[i].outputs.size(), ref.outputs.size());
    for (std::size_t p = 0; p < ref.outputs.size(); ++p) {
      ASSERT_TRUE(ref.outputs[p].has_value());
      EXPECT_EQ(sliced[i].outputs[p], ref.outputs[p]) << "run " << i << " party " << p;
    }
  }
}

TEST(BitsliceGmw, ScalarFallbackWhenTargetHasNoSlicedHook) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, 128, 901);
  const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(cfg);
  const rpd::EstimationTarget with_hook{pair.factory, pair.sliced, pair.parties};
  const rpd::EstimationTarget without_hook{pair.factory, nullptr, 0};
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto a =
      rpd::estimate_utility(with_hook, gamma, opts_with(128, 3, 2, 64));
  const auto b =
      rpd::estimate_utility(without_hook, gamma, opts_with(128, 3, 2, 64));
  EXPECT_EQ(a.lanes, kLaneWidth);
  EXPECT_EQ(b.lanes, 1u);  // silently falls back to the scalar engine
  expect_bit_identical(a, b);
}

TEST(BitsliceGmw, CrashedLaneDoesNotPerturbLaneMates) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, kLaneWidth, 902);
  const std::size_t layers = cfg->plan->num_and_layers();
  mpc::SlicedGmwRunner::InputsFn draw = [cfg](Rng& rng) {
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < cfg->circuit.num_parties(); ++p) {
      const std::size_t width = cfg->circuit.input_width(p);
      inputs.push_back(circuit::bytes_to_bits(rng.bytes((width + 7) / 8), width));
    }
    return inputs;
  };
  // Crash lanes 5 and 40 at different layers; every other lane must be
  // byte-for-byte what the crash-free runner produces.
  const mpc::CrashScheduleFn crashes =
      [layers](std::size_t i) -> std::optional<mpc::CrashPlan> {
    if (i == 5) return mpc::CrashPlan{.party = 1, .layer = 0};
    if (i == 40) return mpc::CrashPlan{.party = 0, .layer = layers};
    return std::nullopt;
  };
  const mpc::SlicedGmwRunner honest(cfg, draw);
  const mpc::SlicedGmwRunner crashing(cfg, draw, crashes);
  std::vector<sim::ExecutionResult> ref(kLaneWidth);
  std::vector<sim::ExecutionResult> got(kLaneWidth);
  honest.run_batch(0, kLaneWidth, 31, ref);
  crashing.run_batch(0, kLaneWidth, 31, got);
  for (std::size_t l = 0; l < kLaneWidth; ++l) {
    if (l == 5 || l == 40) {
      // Masked lane: every party of the crashed run ends with ⊥.
      for (const auto& out : got[l].outputs) EXPECT_FALSE(out.has_value());
      continue;
    }
    ASSERT_EQ(got[l].outputs.size(), ref[l].outputs.size());
    for (std::size_t p = 0; p < ref[l].outputs.size(); ++p) {
      ASSERT_TRUE(ref[l].outputs[p].has_value());
      EXPECT_EQ(got[l].outputs[p], ref[l].outputs[p]) << "lane " << l;
    }
  }
}

// --------------------------------------------------- sequential stopping

TEST(BitsliceStopping, StopPointIsInvariantUnderThreads) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const std::size_t runs = 1024;
  const auto cfg = config_for(mill, PreprocMode::kInline, runs, 903);
  const std::size_t layers = cfg->plan->num_and_layers();
  const experiments::GmwHonestPair pair =
      experiments::gmw_honest_pair(cfg, crash_every_8th(layers));
  const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  std::optional<rpd::UtilityEstimate> first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto est = rpd::estimate_utility(
        target, gamma,
        opts_with(runs, 23, threads, 64, 0.05));
    EXPECT_TRUE(est.stopped_early);
    EXPECT_LT(est.runs, est.requested_runs);
    EXPECT_LE(est.ci_halfwidth(), 0.05);
    EXPECT_EQ(est.run_events.size(), est.runs);
    if (!first) {
      first = est;
    } else {
      expect_bit_identical(*first, est);
      EXPECT_EQ(first->stopped_early, est.stopped_early);
    }
  }
}

TEST(BitsliceStopping, StoppedEstimateEqualsFixedRunEstimateOfSameCount) {
  // Determinism contract: an early stop at N runs is THE SAME estimate a
  // fixed N-run estimation would produce — stopping discards nothing else.
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, 1024, 904);
  const std::size_t layers = cfg->plan->num_and_layers();
  const experiments::GmwHonestPair pair =
      experiments::gmw_honest_pair(cfg, crash_every_8th(layers));
  const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto stopped = rpd::estimate_utility(
      target, gamma, opts_with(1024, 29, 4, 64, 0.05));
  ASSERT_TRUE(stopped.stopped_early);
  const auto fixed = rpd::estimate_utility(
      target, gamma, opts_with(stopped.runs, 29, 1, 64));
  expect_bit_identical(stopped, fixed);
}

TEST(BitsliceStopping, ZeroVarianceStopsAfterTwoLaneBatches) {
  // Honest runs all score the same, so the rule fires at its earliest legal
  // point: after two lane batches.
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, 1024, 908);
  const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(cfg);
  const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const auto est = rpd::estimate_utility(
        target, rpd::PayoffVector::standard(),
        opts_with(1024, 42, threads, 64, 0.05));
    EXPECT_TRUE(est.stopped_early);
    EXPECT_EQ(est.runs, 2 * kLaneWidth);
    EXPECT_EQ(est.std_error, 0.0);
  }
}

TEST(BitsliceStopping, DisabledTargetRunsEverythingRequested) {
  const circuit::Circuit mill = circuit::make_millionaires_circuit(8);
  const auto cfg = config_for(mill, PreprocMode::kInline, 192, 906);
  const experiments::GmwHonestPair pair = experiments::gmw_honest_pair(cfg);
  const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
  const auto est = rpd::estimate_utility(target, rpd::PayoffVector::standard(),
                                         opts_with(192, 7, 2, 64));
  EXPECT_FALSE(est.stopped_early);
  EXPECT_EQ(est.runs, 192u);
  EXPECT_EQ(est.requested_runs, 192u);
}

}  // namespace
}  // namespace fairsfe
