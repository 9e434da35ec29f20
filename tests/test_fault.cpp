// Fault-injection subsystem tests: the zero plan is byte-identical to the
// reliable engine (golden), fault executions are deterministic in the seed
// and invariant under the estimator thread count, timeouts/crashes follow
// the documented semantics, and round-cap runs surface as hard per-run
// errors. The "Fault" suites are part of the TSan gate in scripts/ci.sh.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <utility>

#include "crypto/bytes.h"
#include "experiments/setups.h"
#include "fair/opt2sfe.h"
#include "rpd/estimator.h"
#include "sim/fault/injector.h"

namespace fairsfe {
namespace {

using rpd::EstimatorOptions;
using rpd::UtilityEstimate;
using sim::fault::ChannelFaults;
using sim::fault::CrashEvent;
using sim::fault::FaultPlan;
using sim::fault::FaultRule;
using sim::fault::FaultStats;

EstimatorOptions opts_with(std::size_t runs, std::uint64_t seed, std::size_t threads,
                           std::optional<FaultPlan> fault = std::nullopt) {
  EstimatorOptions o;
  o.runs = runs;
  o.seed = seed;
  o.threads = threads;
  o.fault = std::move(fault);
  return o;
}

void expect_bit_identical(const UtilityEstimate& a, const UtilityEstimate& b) {
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.event_freq, b.event_freq);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.valid_runs, b.valid_runs);
  EXPECT_EQ(a.round_cap_hits, b.round_cap_hits);
  EXPECT_EQ(a.first_round_cap_run, b.first_round_cap_run);
  EXPECT_EQ(a.run_events, b.run_events);
  EXPECT_TRUE(a.fault_stats == b.fault_stats);
}

// The plan exercised by the determinism tests: every fault type at once.
FaultPlan rich_plan() {
  ChannelFaults f;
  f.drop = 0.15;
  f.delay = 0.2;
  f.max_delay_rounds = 2;
  f.duplicate = 0.1;
  f.corrupt = 0.1;
  f.reorder = 0.1;
  return FaultPlan::uniform(f);
}

TEST(FaultPlanTest, EnabledSemantics) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_FALSE(FaultPlan::uniform_drop(0.0).enabled());
  EXPECT_FALSE(FaultPlan::uniform(ChannelFaults{}).enabled());
  EXPECT_TRUE(FaultPlan::uniform_drop(0.1).enabled());
  EXPECT_TRUE(FaultPlan{}.with_crash(0, 3).enabled());
}

TEST(FaultPlanTest, FirstMatchingRuleWins) {
  FaultPlan plan;
  ChannelFaults heavy;
  heavy.drop = 0.9;
  ChannelFaults light;
  light.drop = 0.1;
  plan.rules.push_back(FaultRule{0, 1, 2, 5, heavy});           // 0->1, rounds [2,5]
  plan.rules.push_back(FaultRule{sim::kAnyParty, 1, 0,          // *->1, any round
                                 std::numeric_limits<int>::max(), light});
  ASSERT_NE(plan.lookup(0, 1, 3), nullptr);
  EXPECT_EQ(plan.lookup(0, 1, 3)->drop, 0.9);   // specific rule first
  EXPECT_EQ(plan.lookup(0, 1, 6)->drop, 0.1);   // out of window -> wildcard
  EXPECT_EQ(plan.lookup(2, 1, 3)->drop, 0.1);   // wrong sender -> wildcard
  EXPECT_EQ(plan.lookup(0, 0, 3), nullptr);     // no rule for this channel
}

TEST(FaultGolden, DisabledPlanIsByteIdenticalToReliableEngine) {
  // Same factory, same randomness; one run gets an explicitly-disabled
  // FaultPlan. Transcripts, outputs, and RoutingStats must match bit for bit.
  const auto factory = experiments::opt2_lock_abort(0);
  Rng a(5);
  rpd::RunSetup s1 = factory(a);
  s1.engine.record_transcript = true;
  Rng b(5);
  rpd::RunSetup s2 = factory(b);
  s2.engine.record_transcript = true;
  s2.engine.fault = FaultPlan{};  // disabled: must not perturb anything

  const auto r1 = rpd::execute(std::move(s1), Rng(99));
  const auto r2 = rpd::execute(std::move(s2), Rng(99));

  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.outputs, r2.outputs);
  EXPECT_EQ(r1.adversary_learned, r2.adversary_learned);
  EXPECT_EQ(r1.stats.messages, r2.stats.messages);
  EXPECT_EQ(r1.stats.broadcast_messages, r2.stats.broadcast_messages);
  EXPECT_EQ(r1.stats.payload_bytes, r2.stats.payload_bytes);
  EXPECT_EQ(r1.stats.bytes_copied, r2.stats.bytes_copied);
  EXPECT_EQ(r1.stats.bytes_copy_avoided, r2.stats.bytes_copy_avoided);
  EXPECT_EQ(r1.transcript_lines(), r2.transcript_lines());
  EXPECT_TRUE(r2.fault_stats.empty()) << r2.fault_stats.to_string();
}

TEST(FaultGolden, DisabledPlanIsByteIdenticalAtEstimatorLevel) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto plain =
      rpd::estimate_utility(experiments::opt2_lock_abort(0), gamma, opts_with(96, 7, 2));
  const auto disabled = rpd::estimate_utility(experiments::opt2_lock_abort(0), gamma,
                                              opts_with(96, 7, 2, FaultPlan{}));
  expect_bit_identical(plain, disabled);
  EXPECT_TRUE(disabled.fault_stats.empty());
}

TEST(FaultDeterminism, ThreadCountDoesNotChangeEstimateOrFaultStats) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto factory = experiments::opt2_lock_abort_strict(0);
  const auto one =
      rpd::estimate_utility(factory, gamma, opts_with(200, 13, 1, rich_plan()));
  const auto two =
      rpd::estimate_utility(factory, gamma, opts_with(200, 13, 2, rich_plan()));
  const auto eight =
      rpd::estimate_utility(factory, gamma, opts_with(200, 13, 8, rich_plan()));
  expect_bit_identical(one, two);
  expect_bit_identical(one, eight);
  // The plan must actually have injected faults for this to mean anything.
  EXPECT_GT(one.fault_stats.examined, 0u);
  EXPECT_GT(one.fault_stats.dropped, 0u);
  EXPECT_GT(one.fault_stats.delayed, 0u);
}

TEST(FaultDeterminism, RunEventsArePrefixStableUnderFaults) {
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const auto factory = experiments::opt2_lock_abort_strict(0);
  const auto small =
      rpd::estimate_utility(factory, gamma, opts_with(100, 21, 2, rich_plan()));
  const auto big =
      rpd::estimate_utility(factory, gamma, opts_with(180, 21, 3, rich_plan()));
  ASSERT_LE(small.run_events.size(), big.run_events.size());
  for (std::size_t i = 0; i < small.run_events.size(); ++i) {
    EXPECT_EQ(small.run_events[i], big.run_events[i]) << "run " << i;
  }
}

// Honest Opt2SFE execution under a given plan (no adversary).
sim::ExecutionResult run_honest_opt2(std::uint64_t seed, const FaultPlan& plan,
                                     Bytes* y_out) {
  Rng rng(seed);
  const mpc::SfeSpec spec = experiments::two_party_spec();
  const auto xs = experiments::random_inputs(2, rng);
  if (y_out) *y_out = xs[0] + xs[1];
  auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
  sim::ExecutionOptions cfg;
  cfg.max_rounds = 64;
  cfg.fault = plan;
  sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec, nullptr, 8),
                nullptr, rng.fork("engine"), cfg);
  return e.run();
}

TEST(FaultSemantics, DelayOnlyChannelStillCompletesCorrectly) {
  // Every party-to-party message is delayed 1-2 rounds — strictly less than
  // the timeout — so the protocol must still terminate with the right y.
  ChannelFaults f;
  f.delay = 1.0;
  f.max_delay_rounds = 2;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Bytes y;
    const auto r = run_honest_opt2(seed, FaultPlan::uniform(f), &y);
    EXPECT_FALSE(r.hit_round_cap) << "seed " << seed;
    ASSERT_TRUE(r.outputs[0].has_value());
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], y) << "seed " << seed;
    EXPECT_EQ(*r.outputs[1], y) << "seed " << seed;
    EXPECT_GT(r.fault_stats.delayed, 0u);
    EXPECT_EQ(r.fault_stats.injected, r.fault_stats.delayed);
    EXPECT_EQ(r.fault_stats.dropped, 0u);
  }
}

TEST(FaultSemantics, TimeoutFiresUnderTotalDrop) {
  // Every reconstruction message is lost: both parties must observe the
  // abort event via the round timeout — never spin to the round cap — and
  // end in a sound state (default evaluation or ⊥, never a wrong value).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Bytes y;
    const auto r = run_honest_opt2(seed, FaultPlan::uniform_drop(1.0), &y);
    EXPECT_FALSE(r.hit_round_cap) << "seed " << seed;
    EXPECT_EQ(r.fault_stats.timeouts_fired, 2u) << "seed " << seed;
    EXPECT_GT(r.fault_stats.dropped, 0u);
    for (int pid = 0; pid < 2; ++pid) {
      if (r.outputs[pid].has_value()) {
        EXPECT_NE(*r.outputs[pid], y) << "p" << pid << " got y over a dead channel";
      }
    }
  }
}

TEST(FaultSemantics, PermanentCrashIsCountedAndFinalizedSoundly) {
  Bytes y;
  const auto r = run_honest_opt2(3, FaultPlan{}.with_crash(1, /*at_round=*/2), &y);
  EXPECT_FALSE(r.hit_round_cap);
  EXPECT_EQ(r.fault_stats.crashes, 1u);
  EXPECT_EQ(r.fault_stats.restarts, 0u);
  // The crashed party is finalized through on_abort(): it may hold a default
  // evaluation or ⊥, but never the true y (it died before reconstruction).
  if (r.outputs[1].has_value()) {
    EXPECT_NE(*r.outputs[1], y);
  }
}

TEST(FaultSemantics, OneRoundOutageWithRestartIsAbsorbed) {
  // Crash during a stall round, restart before the share arrives: the
  // outage is invisible to the protocol outcome.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Bytes y;
    const auto r =
        run_honest_opt2(seed, FaultPlan{}.with_crash(1, /*at=*/1, /*restart=*/2), &y);
    EXPECT_FALSE(r.hit_round_cap) << "seed " << seed;
    EXPECT_EQ(r.fault_stats.crashes, 1u);
    EXPECT_EQ(r.fault_stats.restarts, 1u);
    ASSERT_TRUE(r.outputs[0].has_value());
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(*r.outputs[0], y) << "seed " << seed;
    EXPECT_EQ(*r.outputs[1], y) << "seed " << seed;
  }
}

TEST(FaultEstimator, RoundCapSurfacesAsHardErrorNotAsPayoff) {
  // Cap every run at one round: the estimator must report all runs as
  // excluded instead of folding truncated executions into the average.
  const auto factory = [](Rng& rng) {
    rpd::RunSetup s = experiments::opt2_lock_abort(0)(rng);
    s.engine.max_rounds = 1;
    return s;
  };
  const auto est =
      rpd::estimate_utility(factory, rpd::PayoffVector::standard(), opts_with(32, 3, 2));
  EXPECT_EQ(est.runs, 32u);
  EXPECT_EQ(est.round_cap_hits, 32u);
  EXPECT_EQ(est.valid_runs, 0u);
  EXPECT_EQ(est.first_round_cap_run, 0u);
  EXPECT_FALSE(est.clean());
  EXPECT_EQ(est.utility, 0.0);
  for (double fq : est.event_freq) EXPECT_EQ(fq, 0.0);
}

TEST(FaultEstimator, CleanEstimatesReportFullValidity) {
  const auto est = rpd::estimate_utility(experiments::opt2_lock_abort(0),
                                         rpd::PayoffVector::standard(), opts_with(64, 3, 1));
  EXPECT_TRUE(est.clean());
  EXPECT_EQ(est.valid_runs, 64u);
  EXPECT_EQ(est.first_round_cap_run, 64u);  // sentinel: no capped run
}

TEST(FaultEstimator, OptionsOverrideMatchesFactoryEmbeddedPlan) {
  // opts.fault replaces the factory's plan after construction; embedding the
  // same plan in the factory must give the bit-identical estimate.
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  const FaultPlan plan = rich_plan();
  const auto embedded = [plan](Rng& rng) {
    rpd::RunSetup s = experiments::opt2_lock_abort_strict(0)(rng);
    s.engine.fault = plan;
    return s;
  };
  const auto via_opts = rpd::estimate_utility(experiments::opt2_lock_abort_strict(0), gamma,
                                              opts_with(128, 29, 2, plan));
  const auto via_factory = rpd::estimate_utility(embedded, gamma, opts_with(128, 29, 2));
  expect_bit_identical(via_opts, via_factory);
}

TEST(FaultInjectorTest, CorruptInFlightFlipsBitsDeterministically) {
  Rng a(11);
  Rng b(11);
  Bytes p1 = bytes_of("the quick brown fox");
  Bytes p2 = p1;
  const Bytes original = p1;
  sim::fault::corrupt_in_flight(p1, a);
  sim::fault::corrupt_in_flight(p2, b);
  EXPECT_EQ(p1, p2);        // same stream, same mutation
  EXPECT_NE(p1, original);  // at least one bit flipped
  EXPECT_EQ(p1.size(), original.size());

  Bytes empty;
  sim::fault::corrupt_in_flight(empty, a);  // no-op, no crash
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace fairsfe
