// Golden estimates for the dealt-stream protocols: Gordon–Katz (two-party and
// n-party), the round-sampling 1/p exchange and the leaky-AND wrapper around
// GK. Each row pins the exact utility, standard error, valid-run count and
// per-run event trace of a 64-run estimate at a fixed seed. The values were
// recorded before the dealt streams moved to a shared read-only buffer, so any
// change to Rng draw order, wire bytes or share validation shows up here as a
// changed bit. On a mismatch the test prints the row as it measured it, in the
// table's own syntax. DealtBodies pins the dealer's bytes themselves, which
// catches a byte change that flips no event.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "adversary/strategies.h"
#include "crypto/sha256.h"
#include "experiments/setups.h"
#include "fair/gk_multi.h"
#include "fair/leaky_and.h"
#include "fair/opt2sfe.h"
#include "fair/partial_1p.h"
#include "mpc/sfe_functionalities.h"

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

// A dealer context with no corrupted party: the abort gate never fires.
class DealerContext final : public sim::FuncContext {
 public:
  DealerContext(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override { return none_; }
  bool adversary_abort_gate(const std::vector<sim::Message>& /*outputs*/) override {
    return false;
  }

 private:
  int n_;
  Rng rng_;
  std::set<sim::PartyId> none_;
};

std::string sha256_hex(ByteView body) { return to_hex(sha256(body)); }

// SHA-256 of the body each func-output payload frames.
std::vector<std::string> body_hashes(const std::vector<Bytes>& payloads) {
  std::vector<std::string> hashes;
  for (const Bytes& payload : payloads) {
    const auto body = sim::decode_func_output(payload);
    hashes.push_back(body ? sha256_hex(*body) : "no body");
  }
  return hashes;
}

// SHA-256 of each body a dealer functionality delivers for `inputs`.
std::vector<std::string> dealt_hashes(sim::IFunctionality& dealer,
                                      const std::vector<Bytes>& inputs, std::uint64_t seed) {
  DealerContext ctx(static_cast<int>(inputs.size()), seed);
  std::vector<sim::Message> in;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    in.push_back(sim::Message{static_cast<sim::PartyId>(p), sim::kFunc,
                              sim::encode_func_input(inputs[p])});
  }
  std::vector<Bytes> payloads;
  for (sim::Message& m : dealer.on_round(ctx, 1, in)) payloads.push_back(std::move(m.payload));
  return body_hashes(payloads);
}

void expect_hashes(const std::vector<std::string>& measured,
                   const std::vector<std::string>& golden, const char* what) {
  std::string listing;
  for (const std::string& h : measured) listing += "\"" + h + "\",\n";
  EXPECT_EQ(measured, golden) << what << ", measured:\n" << listing;
}

// The dealt bodies themselves, recorded before the dealers wrote records in
// place: two direct deal_auth_stream_payloads calls (1-byte values as in GK, and
// 300-byte values past any stack buffer), GK's and E16's ShareGen at p = 4,
// an n = 3 multi-party dealer with 40-byte values, whose share-hash input no
// longer fits one SHA-256 block, and Opt2SFE's ShareGen.
TEST(GkStreamGolden, DealtBodies) {
  {
    Rng rng(2100);
    const auto fake = [&rng] { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
    expect_hashes(body_hashes(fair::deal_auth_stream_payloads(33, 9, Bytes{1}, fake, fake, rng)),
                  {
                      "6da0a001dc568e47fa83d48335566ed3a2ee8c0c53205b21863c5dcc5aefa3a3",
                      "add5c156c067ab9382892cb4596e197b1743103a34db34477efa64b2c5847c30",
                  },
                  "deal_auth_stream_payloads, 1-byte values");
  }
  {
    Rng rng(2101);
    const Bytes y = rng.bytes(300);
    const auto fake_a = [&rng] { return rng.bytes(300); };
    const auto fake_b = [&rng] { return rng.bytes(299); };
    expect_hashes(body_hashes(fair::deal_auth_stream_payloads(4, 3, y, fake_a, fake_b, rng)),
                  {
                      "b827d60b8b81e1f563a1d2e9272d917a9579203ff9380e0d7351a0c1553721f3",
                      "76c67b85e6291b948218c26151b855d71d40ca1dd644e29381c56407ff854c80",
                  },
                  "deal_auth_stream_payloads, 300-byte values");
  }
  {
    fair::ShareGenFunc gk(fair::make_gk_and_params(4));
    expect_hashes(dealt_hashes(gk, {Bytes{1}, Bytes{1}}, 2102),
                  {
                      "0313c20c732dfa3a9e7f45c59ade73ea88d42f543c938fa90d1ecc94dc6bbada",
                      "ae88b385a61bf1cc7ae2d8c7a6f30368dadce210a4f4988ed278de75637fcab5",
                  },
                  "ShareGenFunc p=4");
  }
  {
    fair::MultiShareGenFunc multi(fair::make_gk_multi_and_params(3, 4));
    expect_hashes(dealt_hashes(multi, {Bytes{1}, Bytes{0}, Bytes{1}}, 2103),
                  {
                      "c202ad044b3ff9f545978ca41c723db0815f4e3bf78a705766d150492fce86fb",
                      "c4741d41095c40f4748140653b0baed64d171cdbf6f9520ea621c5eccbc63ba9",
                      "6dce5b36f650386e5f6bd22c9ef6f448f54879543756e9b1e6c83342d247493d",
                  },
                  "MultiShareGenFunc n=3 p=4");
  }
  {
    fair::GkMultiParams params;
    params.spec.n = 3;
    params.spec.eval = [](const std::vector<Bytes>& xs) {
      Bytes y(40);
      for (const Bytes& x : xs) {
        for (std::size_t i = 0; i < y.size(); ++i) y[i] ^= x[i % x.size()];
      }
      return y;
    };
    params.spec.default_inputs.assign(3, Bytes{0});
    params.p = 2;
    params.rounds = 6;
    params.sample_inputs = [](Rng& rng) {
      return std::vector<Bytes>{rng.bytes(5), rng.bytes(8), rng.bytes(40)};
    };
    fair::MultiShareGenFunc multi(params);
    expect_hashes(dealt_hashes(multi, {bytes_of("abc"), bytes_of("defg"), bytes_of("h")}, 2104),
                  {
                      "83772cbd0c7ce2c4fc7cabda34f4b1fea311e01383017324baab6d2e8fea338a",
                      "be25274fe9ef5b0744f0f333761babb05c599182ce931451f9052190965843a3",
                      "6108fec1f9898f0b68a53fd235a19a45e93e1daec09ef678c3bd5f9db59c0ea0",
                  },
                  "MultiShareGenFunc n=3, 40-byte values");
  }
  {
    fair::Opt2ShareFunc opt2(mpc::make_concat_spec(2, 8));
    expect_hashes(dealt_hashes(opt2, {Bytes(8, 0x11), Bytes(8, 0x22)}, 2105),
                  {
                      "e5c50f97b9cf81faa6e4d58b4d92c919eb929591d4138f938982a1997517146b",
                      "a9237c779140f18d7d631fac1f9bfb7ec40160f4832c3b3345976d36205d64d7",
                  },
                  "Opt2ShareFunc, 16-byte y");
  }
}

}  // namespace
}  // namespace fairsfe::experiments
