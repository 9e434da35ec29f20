// Scheduling-independence of the parallel Monte-Carlo estimation engine:
// the same (factory, payoff, runs, seed) must produce bit-identical
// UtilityEstimates — utility, std_error, event_freq, and the per-run event
// classifications — for every EstimatorOptions::threads setting. This test
// is also the TSan workload built by scripts/ci.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "experiments/setups.h"
#include "rpd/balance.h"
#include "rpd/fairness_relation.h"
#include "util/thread_pool.h"

namespace fairsfe::rpd {
namespace {

using experiments::opt2_agen;
using experiments::opt2_lock_abort;

void expect_bit_identical(const UtilityEstimate& a, const UtilityEstimate& b) {
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.event_freq, b.event_freq);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.run_events, b.run_events);
}

EstimatorOptions opts_with(std::size_t runs, std::uint64_t seed, std::size_t threads) {
  EstimatorOptions o;
  o.runs = runs;
  o.seed = seed;
  o.threads = threads;
  return o;
}

TEST(EstimatorParallel, ThreadCountDoesNotChangeTheEstimate) {
  const PayoffVector gamma = PayoffVector::standard();
  const auto one = estimate_utility(opt2_lock_abort(0), gamma, opts_with(200, 7, 1));
  const auto eight = estimate_utility(opt2_lock_abort(0), gamma, opts_with(200, 7, 8));
  expect_bit_identical(one, eight);
  ASSERT_EQ(one.run_events.size(), 200u);
}

TEST(EstimatorParallel, AutoThreadsMatchesSequential) {
  const PayoffVector gamma = PayoffVector::standard();
  // threads = 0 resolves to one worker per hardware thread.
  const auto seq = estimate_utility(opt2_agen(), gamma, opts_with(150, 11, 1));
  const auto autod = estimate_utility(opt2_agen(), gamma, opts_with(150, 11, 0));
  expect_bit_identical(seq, autod);
}

TEST(EstimatorParallel, SingleThreadMatchesFourThreads) {
  const PayoffVector gamma = PayoffVector::standard();
  const auto single = estimate_utility(opt2_lock_abort(1), gamma, opts_with(128, 3, 1));
  const auto parallel = estimate_utility(opt2_lock_abort(1), gamma, opts_with(128, 3, 4));
  expect_bit_identical(single, parallel);
}

TEST(EstimatorParallel, RunEventsAreAPrefixStableStream) {
  // Run i is a pure function of (seed, i): estimating fewer runs yields a
  // prefix of the longer estimation's per-run classifications.
  const PayoffVector gamma = PayoffVector::standard();
  const auto small = estimate_utility(opt2_lock_abort(0), gamma, opts_with(100, 21, 2));
  const auto big = estimate_utility(opt2_lock_abort(0), gamma, opts_with(180, 21, 3));
  ASSERT_LE(small.run_events.size(), big.run_events.size());
  for (std::size_t i = 0; i < small.run_events.size(); ++i) {
    EXPECT_EQ(small.run_events[i], big.run_events[i]) << "run " << i;
  }
}

TEST(EstimatorParallel, AssessProtocolIsThreadCountInvariant) {
  const PayoffVector gamma = PayoffVector::standard();
  const std::vector<NamedAttack> family = {
      {"lock-abort(p1)", opt2_lock_abort(0)},
      {"lock-abort(p2)", opt2_lock_abort(1)},
  };
  const auto seq = assess_protocol(family, gamma, opts_with(96, 17, 1));
  const auto par = assess_protocol(family, gamma, opts_with(96, 17, 8));
  ASSERT_EQ(seq.attacks.size(), par.attacks.size());
  EXPECT_EQ(seq.best_index, par.best_index);
  for (std::size_t k = 0; k < seq.attacks.size(); ++k) {
    EXPECT_EQ(seq.attacks[k].name, par.attacks[k].name);
    expect_bit_identical(seq.attacks[k].estimate, par.attacks[k].estimate);
  }
  // And the attack-family seeding (seed + attack index) is stable under a
  // re-built options struct.
  const auto rebuilt = assess_protocol(family, gamma, opts_with(96, 17, 1));
  for (std::size_t k = 0; k < seq.attacks.size(); ++k) {
    expect_bit_identical(seq.attacks[k].estimate, rebuilt.attacks[k].estimate);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(hits.size(), 8,
                     [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(util::parallel_for(64, 4,
                                  [](std::size_t i) {
                                    if (i == 13) throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsSubmittedJobs) {
  util::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

}  // namespace
}  // namespace fairsfe::rpd
