// Golden estimates for the dealt-stream protocols: Gordon–Katz (two-party and
// n-party), the round-sampling 1/p exchange and the leaky-AND wrapper around
// GK. Each row pins the exact utility, standard error, valid-run count and
// per-run event trace of a 64-run estimate at a fixed seed. The values were
// recorded before the dealt streams moved to a shared read-only buffer, so any
// change to Rng draw order, wire bytes or share validation shows up here as a
// changed bit. On a mismatch the test prints the row as it measured it, in the
// table's own syntax.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "adversary/strategies.h"
#include "experiments/setups.h"
#include "fair/leaky_and.h"
#include "fair/partial_1p.h"

namespace fairsfe::experiments {
namespace {

constexpr std::size_t kRuns = 64;

struct Golden {
  const char* row;
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

// Π̃ under its Section 5 attack: corrupt p2 sends the 1-bit preamble and then
// follows the embedded 1/4-secure GK protocol honestly.
rpd::SetupFactory leaky_and_probe() {
  return [](Rng& rng) {
    rpd::RunSetup s;
    const Bytes x0{static_cast<std::uint8_t>(rng.bit())};
    const Bytes x1{static_cast<std::uint8_t>(rng.bit())};
    s.parties = fair::make_leaky_and_parties(x0, x1, rng);
    s.functionality = fair::make_leaky_and_functionality(nullptr);
    s.adversary = std::make_unique<adversary::LeakyAndProbe>();
    s.engine.max_rounds = 200;
    return s;
  };
}

void expect_rows(const std::vector<rpd::NamedAttack>& family, const std::string& prefix,
                 std::uint64_t seed, const std::vector<Golden>& golden) {
  EXPECT_EQ(family.size(), golden.size()) << prefix;
  for (std::size_t i = 0; i < family.size(); ++i) {
    const std::string name = prefix + " " + family[i].name;
    rpd::EstimatorOptions opts;
    opts.runs = kRuns;
    opts.seed = seed + i;
    const auto est =
        rpd::estimate_utility(family[i].factory, rpd::PayoffVector::partial_fairness(), opts);
    const std::string events = event_digits(est.run_events);
    const Golden* g = i < golden.size() ? &golden[i] : nullptr;
    const bool same = g != nullptr && name == g->row && est.utility == g->utility &&
                      est.std_error == g->std_error && est.valid_runs == g->valid_runs &&
                      events == g->events;
    char measured[512];
    std::snprintf(measured, sizeof(measured), "{\"%s\", %a, %a, %zu,\n \"%s\"},", name.c_str(),
                  est.utility, est.std_error, est.valid_runs, events.c_str());
    EXPECT_TRUE(same) << "measured: " << measured;
  }
}

TEST(GkStreamGolden, GordonKatzPolyDomain) {
  expect_rows(gk_attack_family(fair::make_gk_and_params(4)), "gk p=4", 1200,
              {
                  {"gk p=4 abort@1", 0x1.8p-5, 0x1.b44f60ac465aap-6, 64,
                   "1111111111111111121111111111111121111111111111112111111111111111"},
                  {"gk p=4 abort@mid", 0x0p+0, 0x0p+0, 64,
                   "1111111111111111111111111111111111111111111111111111111111111111"},
                  {"gk p=4 geometric(1/p)", 0x1p-5, 0x1.672763164bb61p-6, 64,
                   "1111111111111111121111111112111111111111111111111111111111111111"},
                  {"gk p=4 match-target", 0x1.2p-3, 0x1.66caa7ca3ce37p-5, 64,
                   "2112111121211121111111111112111111122111111121111111111111111111"},
                  {"gk p=4 repeat-detector", 0x1.cp-4, 0x1.4220532e48a3dp-5, 64,
                   "1111211112112111211111111111111111111111111112121111111111111211"},
              });
  expect_rows(gk_attack_family(fair::make_gk_and_params(8)), "gk p=8", 1300,
              {
                  {"gk p=8 abort@1", 0x1p-5, 0x1.672763164bb61p-6, 64,
                   "1111111111111111111111111111111111121111111121111111111111111111"},
                  {"gk p=8 abort@mid", 0x0p+0, 0x0p+0, 64,
                   "1111111111111111111111111111111111111111111111111111111111111111"},
                  {"gk p=8 geometric(1/p)", 0x1p-4, 0x1.f3a92ca2f4b7cp-6, 64,
                   "1111111111121111111111111111111111111111111111112111112111211111"},
                  {"gk p=8 match-target", 0x1.8p-5, 0x1.b44f60ac465aap-6, 64,
                   "1111111111111211111111111111111211111111111111112111111111111111"},
                  {"gk p=8 repeat-detector", 0x1p-4, 0x1.f3a92ca2f4b7cp-6, 64,
                   "1111111111111111111111121121111111111211111211111111111111111111"},
              });
}

TEST(GkStreamGolden, GkMultiCoalition) {
  expect_rows(gk_multi_attack_family(3, 2, 4), "gk_multi n=3 t=2 p=4", 1400,
              {
                  {"gk_multi n=3 t=2 p=4 abort@1", 0x1p-4, 0x1.f3a92ca2f4b7cp-6, 64,
                   "1111121111111111111111111111111111111111111111111111211111121121"},
                  {"gk_multi n=3 t=2 p=4 geometric(1/p)", 0x1.4p-4, 0x1.14fb4113f1a8cp-5, 64,
                   "1112111112111111111111111111111111212111111111111111111111111211"},
                  {"gk_multi n=3 t=2 p=4 match-target", 0x1.2p-2, 0x1.d00a1696ffa9fp-5, 64,
                   "2121121111111111121111111111211122211121121112111111221111221222"},
                  {"gk_multi n=3 t=2 p=4 repeat-detector", 0x1.2p-3, 0x1.66caa7ca3ce37p-5, 64,
                   "1111111111211111111121111111112112112111111121111112111111112112"},
              });
}

TEST(GkStreamGolden, RoundSampling) {
  expect_rows(partial_1p_attack_family(fair::make_partial_1p_and_params(4)), "partial_1p p=4",
              1500,
              {
                  {"partial_1p p=4 abort@1", 0x1.cp-3, 0x1.aaaaaaaaaaaabp-5, 64,
                   "1111112111111112112112112212111222111121211111111111111211111112"},
                  {"partial_1p p=4 abort@mid", 0x1.4p-3, 0x1.76bee17a3789dp-5, 64,
                   "1111111211111111121111111121112121112111121112111111121111211111"},
                  {"partial_1p p=4 abort@p", 0x1.cp-3, 0x1.aaaaaaaaaaaabp-5, 64,
                   "1112211211121121121111111122111111212121111111121111111112211111"},
                  {"partial_1p p=4 match-target", 0x1.cp-3, 0x1.aaaaaaaaaaaabp-5, 64,
                   "2121111111212111121111122111112111111121211211112111121111111121"},
                  {"partial_1p p=4 honest", 0x0p+0, 0x0p+0, 64,
                   "1111111111111111111111111111111111111111111111111111111111111111"},
              });
}

TEST(GkStreamGolden, LeakyAnd) {
  expect_rows({{"probe", leaky_and_probe()}}, "leaky_and", 1600,
              {
                  {"leaky_and probe", 0x0p+0, 0x0p+0, 64,
                   "1111131111311113111131111131111113111311131111111111111113111111"},
              });
}

}  // namespace
}  // namespace fairsfe::experiments
