// Golden estimates for the Lamport-signed multi-party protocols: ΠOptnSFE
// under lock-abort coalitions and Lemma 13's mixed A_ibar adversary, and the
// Lemma 18 protocol under its single-corruption deviator. Each row pins the
// exact utility, standard error, valid-run count and per-run event trace of a
// 64-run estimate at a fixed seed. Every run signs its output with a fresh
// Lamport key pair drawn from ChaCha20 and verifies it with SHA-256, so a
// changed keystream byte, digest or verification verdict shows up here as a
// changed bit. On a mismatch the test prints the row as it measured it, in
// the table's own syntax.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "experiments/setups.h"

namespace fairsfe::experiments {
namespace {

constexpr std::size_t kRuns = 64;

struct Golden {
  const char* row;  ///< label for the mismatch message
  double utility;
  double std_error;
  std::size_t valid_runs;
  const char* events;  ///< run_events as digits 0..3 (E00, E01, E10, E11)
};

std::string event_digits(const std::vector<rpd::FairnessEvent>& events) {
  std::string s;
  for (const rpd::FairnessEvent e : events) s += static_cast<char>('0' + static_cast<int>(e));
  return s;
}

void expect_row(const rpd::SetupFactory& factory, std::uint64_t seed, const Golden& g) {
  rpd::EstimatorOptions opts;
  opts.runs = kRuns;
  opts.seed = seed;
  const auto est = rpd::estimate_utility(factory, rpd::PayoffVector::standard(), opts);
  const std::string events = event_digits(est.run_events);
  const bool same = est.utility == g.utility && est.std_error == g.std_error &&
                    est.valid_runs == g.valid_runs && events == g.events;
  char measured[512];
  std::snprintf(measured, sizeof(measured), "{\"%s\", %a, %a, %zu,\n \"%s\"},", g.row,
                est.utility, est.std_error, est.valid_runs, events.c_str());
  EXPECT_TRUE(same) << "measured: " << measured;
}

TEST(OptnGolden, LockAbort) {
  expect_row(optn_lock_abort(5, 4), 1700,
             {"optn n=5 t=4 lock-abort", 0x1.d8p-1, 0x1.76bee17a3789dp-6, 64,
              "2232222232222322232222223222222222223222322323222223222222222222"});
  expect_row(optn_lock_abort(8, 7), 1710,
             {"optn n=8 t=7 lock-abort", 0x1.dcp-1, 0x1.66caa7ca3ce37p-6, 64,
              "2222223222223223222232222222222222232222223222222223232223222222"});
}

TEST(OptnGolden, MixedAIbar) {
  expect_row(optn_a_ibar_mixed(5), 1720,
             {"optn n=5 mixed A_ibar", 0x1.c8p-1, 0x1.aaaaaaaaaaaabp-6, 64,
              "3222222222223222222323222222222332223222232222222322222232332323"});
  expect_row(optn_a_ibar_mixed(8), 1730,
             {"optn n=8 mixed A_ibar", 0x1.ep-1, 0x1.5555555555555p-6, 64,
              "2222222222223223222222322222322222223222222222222232222222322223"});
}

TEST(OptnGolden, Lemma18Deviator) {
  expect_row(lemma18_deviator(4), 1740,
             {"lemma18 n=4 deviator", 0x1.a8p-1, 0x1.ea33e2c83c14p-6, 64,
              "3233232233233322322223223323222232222232222232222322232332222223"});
}

}  // namespace
}  // namespace fairsfe::experiments
