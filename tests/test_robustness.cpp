// Robustness property tests: every wire-format decoder must reject random
// garbage and truncations gracefully (return nullopt/false, never crash or
// mis-parse), and protocol parties must survive adversarial junk messages.
#include <gtest/gtest.h>

#include <tuple>

#include "auth_share_util.h"
#include "crypto/auth_share.h"
#include "crypto/lamport.h"
#include "crypto/shamir.h"
#include "fair/gk.h"
#include "fair/gmw_half.h"
#include "fair/leaky_and.h"
#include "fair/lemma18.h"
#include "fair/opt2sfe.h"
#include "fair/optnsfe.h"
#include "fair/partial_1p.h"
#include "mpc/ot.h"
#include "rpd/estimator.h"
#include "sim/fault/plan.h"
#include "experiments/setups.h"

namespace fairsfe::fair {
// Reads the dealt verification key of OptNParty or Lemma18Party (a friend of
// both): null before phase 1 delivers it.
struct LamportPartyPeek {
  template <typename Party>
  static const Bytes* vk(const Party& party) {
    return party.vk_.get();
  }
};
}  // namespace fairsfe::fair

namespace fairsfe {
namespace {

// Feed `fuzz_rounds` random byte strings into every decoder.
class DecoderFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzzTest, AllDecodersRejectGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const Bytes junk = rng.bytes(rng.below(64));
    // None of these may crash; most must reject. (A random payload can start
    // with a valid tag byte by chance, so we only require no-crash plus
    // self-consistency checks below.)
    (void)sim::decode_func_input(junk);
    (void)sim::decode_func_output(junk);
    (void)sim::is_func_abort(junk);
    (void)mpc::decode_ot_result(junk);
    (void)mpc::decode_ot_result_str(junk);
    (void)AuthShare2::from_bytes(junk);
    (void)ShamirShare::from_bytes(junk);
    (void)MacKey::from_bytes(junk);
    (void)fp_from_bytes(junk);
    (void)fair::decode_announcement(junk);
    (void)fair::decode_priv_output(junk);
    (void)fair::decode_share_broadcast(junk);
    (void)fair::decode_flag(junk);
    (void)fair::decode_gk_opening(junk);
    (void)fair::decode_preamble(junk);
    (void)fair::decode_leak(junk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Values(1, 2, 3, 4));

TEST(DecoderRobustness, TruncationsOfValidMessagesRejected) {
  Rng rng(9);
  // Build one valid instance of each frame and check every strict prefix is
  // rejected by its decoder (the formats are self-delimiting and all
  // decoders demand exact framing).
  struct Frame {
    Bytes data;
    std::function<bool(ByteView)> decodes;
  };
  const AuthSharing2 sh = deal_shares(bytes_of("secret"), rng);
  const std::vector<Frame> frames = {
      {sim::encode_func_input(bytes_of("payload")),
       [](ByteView b) { return sim::decode_func_input(b).has_value(); }},
      {sim::encode_func_output(bytes_of("payload")),
       [](ByteView b) { return sim::decode_func_output(b).has_value(); }},
      {mpc::encode_ot_result_str(7, bytes_of("cccc")),
       [](ByteView b) { return mpc::decode_ot_result_str(b).has_value(); }},
      {sh.share1.to_bytes(),
       [](ByteView b) { return AuthShare2::from_bytes(b).has_value(); }},
      {fair::encode_announcement(std::make_pair(bytes_of("y"), bytes_of("s"))),
       [](ByteView b) { return fair::decode_announcement(b).has_value(); }},
      {fair::encode_gk_opening(3, bytes_of("opening")),
       [](ByteView b) { return fair::decode_gk_opening(b).has_value(); }},
  };
  for (const Frame& f : frames) {
    ASSERT_TRUE(f.decodes(f.data));  // the full frame parses
    for (std::size_t cut = 0; cut < f.data.size(); ++cut) {
      EXPECT_FALSE(f.decodes(ByteView(f.data).subspan(0, cut)))
          << "prefix of length " << cut << " parsed";
    }
  }
}

TEST(DecoderRobustness, CorruptedInFlightFramesRejectedOrSafe) {
  // The fault injector's corrupt fate flips 1-3 bits of a frame that was
  // valid when sent (sim::fault::corrupt_in_flight — the exact mutation a
  // corrupting channel applies). Decoders must never crash on such frames;
  // unlike random junk these are well-formed up to a few bits, so they probe
  // the "almost valid" corner the pure-garbage fuzz cannot reach.
  Rng rng(31);
  const AuthSharing2 sh = deal_shares(bytes_of("secret"), rng);
  const std::vector<Bytes> frames = {
      sim::encode_func_input(bytes_of("payload")),
      sim::encode_func_output(bytes_of("payload")),
      mpc::encode_ot_result_str(7, bytes_of("cccc")),
      sh.share1.to_bytes(),
      fair::encode_announcement(std::make_pair(bytes_of("y"), bytes_of("s"))),
      fair::encode_gk_opening(3, bytes_of("opening")),
  };
  for (const Bytes& frame : frames) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes hit = frame;
      sim::fault::corrupt_in_flight(hit, rng);
      (void)sim::decode_func_input(hit);
      (void)sim::decode_func_output(hit);
      (void)sim::is_func_abort(hit);
      (void)mpc::decode_ot_result_str(hit);
      (void)AuthShare2::from_bytes(hit);
      (void)fair::decode_announcement(hit);
      (void)fair::decode_gk_opening(hit);
    }
  }
}

TEST(DecoderRobustness, CorruptedOpeningNeverReconstructsWrongValue) {
  // Bit-flipping an authenticated opening in flight must not let the
  // receiver accept a *wrong* secret: the MAC check makes reconstruction
  // fail (or, vacuously, still yield the true value) — this is exactly why
  // Opt2Party can treat a corrupting channel like a dropping one.
  Rng rng(32);
  const Bytes secret = bytes_of("the true y");
  for (int trial = 0; trial < 300; ++trial) {
    const AuthSharing2 sh = deal_shares(secret, rng);
    Bytes opening = sh.share2.opening_to_bytes();
    sim::fault::corrupt_in_flight(opening, rng);
    const auto y = auth_reconstruct2(sh.share1, opening);
    if (y.has_value()) {
      EXPECT_EQ(*y, secret) << "trial " << trial << ": forged value accepted";
    }
  }
}

// Adversary that sprays random junk point-to-point and to the functionality
// every round while the honest parties run a protocol: honest outcome must
// be a *sound* one (correct output, default-eval output, or ⊥) — never a
// wrong value, never a crash, never a stall past the round cap.
class JunkSprayer final : public sim::IAdversary {
 public:
  explicit JunkSprayer(std::uint64_t seed) : rng_(seed) {}

  void setup(sim::AdvContext& ctx) override { ctx.corrupt(0); }

  std::vector<sim::Message> on_round(sim::AdvContext& ctx,
                                     const sim::AdvView& view) override {
    std::vector<sim::Message> out = ctx.honest_step(0, addressed_to(view.delivered, 0));
    for (int i = 0; i < 3; ++i) {
      const sim::PartyId to =
          (i == 0) ? sim::kFunc : static_cast<sim::PartyId>(1 + rng_.below(
                                      static_cast<std::uint64_t>(ctx.n() - 1)));
      out.push_back(sim::Message{0, to, rng_.bytes(rng_.below(48))});
    }
    return out;
  }

  [[nodiscard]] bool learned_output() const override { return false; }

 private:
  Rng rng_;
};

TEST(JunkResilience, Opt2SfeSurvivesSprayedGarbage) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(seed);
    const mpc::SfeSpec spec = experiments::two_party_spec();
    const auto xs = experiments::random_inputs(2, rng);
    auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 20;
    sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec),
                  std::make_unique<JunkSprayer>(seed), rng.fork("engine"), cfg);
    auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap) << "seed " << seed;
    // Honest p1 ends with the real output, the default evaluation, or ⊥.
    if (r.outputs[1].has_value()) {
      const Bytes actual = xs[0] + xs[1];
      const Bytes with_default = spec.eval({spec.default_inputs[0], xs[1]});
      EXPECT_TRUE(*r.outputs[1] == actual || *r.outputs[1] == with_default)
          << "seed " << seed << ": wrong value accepted";
    }
  }
}

TEST(JunkResilience, Opt2SfeSurvivesCorruptingChannel) {
  // Honest execution over a channel that flips bits in most party-to-party
  // frames: parties must reject the garbled openings cleanly (default-eval
  // or ⊥ via the timeout/abort paths), never accept a wrong y, never crash.
  sim::fault::ChannelFaults f;
  f.corrupt = 0.6;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(seed + 400);
    const mpc::SfeSpec spec = experiments::two_party_spec();
    const auto xs = experiments::random_inputs(2, rng);
    auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 64;
    cfg.fault = sim::fault::FaultPlan::uniform(f);
    sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec),
                  nullptr, rng.fork("engine"), cfg);
    auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap) << "seed " << seed;
    const Bytes actual = xs[0] + xs[1];
    for (int pid = 0; pid < 2; ++pid) {
      if (!r.outputs[pid].has_value()) continue;
      const Bytes with_default =
          spec.eval({pid == 0 ? xs[0] : spec.default_inputs[0],
                     pid == 1 ? xs[1] : spec.default_inputs[1]});
      EXPECT_TRUE(*r.outputs[pid] == actual || *r.outputs[pid] == with_default)
          << "seed " << seed << ": p" << pid << " accepted a wrong value";
    }
  }
}

TEST(JunkResilience, OptNSfeSurvivesSprayedGarbage) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 50);
    const std::size_t n = 4;
    const mpc::SfeSpec spec = experiments::nparty_spec(n);
    const auto xs = experiments::random_inputs(n, rng);
    Bytes actual;
    for (const auto& x : xs) actual = actual + x;
    auto inst = fair::make_optn_instance(spec, xs, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 20;
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality),
                  std::make_unique<JunkSprayer>(seed), rng.fork("engine"), cfg);
    auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap);
    for (std::size_t p = 1; p < n; ++p) {
      if (r.outputs[p].has_value()) {
        EXPECT_EQ(*r.outputs[p], actual) << "forged value accepted by p" << p;
      }
    }
  }
}

TEST(JunkResilience, GkSurvivesSprayedGarbage) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed + 90);
    const fair::GkParams params = fair::make_gk_and_params(2);
    auto notes = std::make_shared<mpc::Notes>();
    auto parties = fair::make_gk_parties(params, Bytes{1}, Bytes{1}, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(2 * params.cap() + 10);
    sim::Engine e(std::move(parties), std::make_unique<fair::ShareGenFunc>(params, notes),
                  std::make_unique<JunkSprayer>(seed), rng.fork("engine"), cfg);
    auto r = e.run();
    EXPECT_FALSE(r.hit_round_cap);
    // Honest p2 ends with SOME byte value (the randomized-abort guarantee
    // permits a fake, but never a crash or a malformed output).
    ASSERT_TRUE(r.outputs[1].has_value());
    EXPECT_EQ(r.outputs[1]->size(), 1u);
  }
}

// Dealt-stream parties (GK and round-sampling) validate their whole ShareGen
// body at receipt even though they parse each round's share only when they
// use it: every malformed body must still end the run with the default
// evaluation, right away.
constexpr std::size_t kDealtRounds = 3;

// The dealt bodies, unframed, for y = 1 with fakes (and fallbacks) 7,
// switching at i* = 2.
std::vector<Bytes> dealt_bodies() {
  Rng rng(77);
  const auto fake = [] { return Bytes{7}; };
  std::vector<Bytes> bodies;
  for (const Bytes& payload :
       fair::deal_auth_stream_payloads(kDealtRounds, 2, Bytes{1}, fake, fake, rng)) {
    const auto body = sim::decode_func_output(payload);
    bodies.emplace_back(body->begin(), body->end());
  }
  return bodies;
}

sim::Message dealer_output(sim::PartyId to, const Bytes& body) {
  return sim::Message{sim::kFunc, to, sim::encode_func_output(body)};
}

// The last share record of a body, and offsets into it (see AuthShare2).
std::size_t last_share(const Bytes& body) { return body.size() - AuthShare2::blob_size(1); }

void put_u32(Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::vector<std::pair<std::string, Bytes>> malformed_bodies() {
  const Bytes good = dealt_bodies()[0];
  std::vector<std::pair<std::string, Bytes>> out;
  Bytes truncated = good;
  truncated.pop_back();
  out.emplace_back("truncated body", truncated);
  Bytes bad_blob = good;
  put_u32(bad_blob, last_share(good) + 4, 0xffffffffu);  // summand length past the end
  out.emplace_back("bad last-round share blob", bad_blob);
  Bytes bad_key = good;
  put_u32(bad_key, good.size() - 16, 0xffffffffu);  // key word a (bytes -16..-9) >= Fp::kP
  put_u32(bad_key, good.size() - 12, 0xffffffffu);
  out.emplace_back("MacKey word >= Fp::kP", bad_key);
  Bytes trailing = good;
  put_u32(trailing, last_share(good), static_cast<std::uint32_t>(AuthShare2::blob_size(1) - 3));
  trailing.push_back(0);  // the last share record now ends in a stray byte
  out.emplace_back("trailing bytes in a share", trailing);
  return out;
}

template <typename Party, typename Params>
void expect_default_on_malformed_body(const Params& params) {
  const auto shared = std::make_shared<const Params>(params);
  const Bytes input{1};
  for (const sim::PartyId id : {0, 1}) {
    std::vector<Bytes> xs = params.spec.default_inputs;
    xs[static_cast<std::size_t>(id)] = input;
    const Bytes with_default = params.spec.eval(xs);
    for (const auto& [what, body] : malformed_bodies()) {
      Party party(id, shared, input);
      (void)party.on_round(0, {});
      (void)party.on_round(1, {dealer_output(id, body)});
      ASSERT_TRUE(party.done()) << what << ", p" << id;
      EXPECT_EQ(party.output(), std::optional<Bytes>(with_default)) << what << ", p" << id;
    }
    // Control: the unmodified body starts the exchange.
    Party party(id, shared, input);
    (void)party.on_round(0, {});
    (void)party.on_round(1, {dealer_output(id, dealt_bodies()[static_cast<std::size_t>(id)])});
    EXPECT_FALSE(party.done()) << "p" << id;
    EXPECT_TRUE(party.stream_started()) << "p" << id;
  }
}

TEST(DealtStreamRobustness, GkPartyRejectsMalformedShareGenBody) {
  expect_default_on_malformed_body<fair::GkParty>(fair::make_gk_and_params(2));
}

TEST(DealtStreamRobustness, Partial1pPartyRejectsMalformedShareGenBody) {
  expect_default_on_malformed_body<fair::Partial1pParty>(fair::make_partial_1p_and_params(2));
}

// An independent copy of the AuthShare2 record walk: the reference the
// receipt check must agree with everywhere.
bool reference_well_formed(ByteView data) {
  Reader r(data);
  const auto summand = r.blob_view();
  const auto tag = r.blob_view();
  const auto key_bytes = r.blob_view();
  return summand && tag && key_bytes && r.at_end() && MacKey::from_bytes(*key_bytes);
}

// AuthStreams::receive's walk over a raw body, with the reference records.
bool reference_accepts(const Bytes& body) {
  Reader r(body);
  const auto rounds = r.u32();
  if (!rounds) return false;
  for (std::size_t k = 0; k < 2 * std::size_t{*rounds} + 1; ++k) {
    const auto record = r.blob_view();
    if (!record || (k > 0 && !reference_well_formed(*record))) return false;
  }
  return true;
}

void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

Bytes share_record(ByteView summand, ByteView tag, ByteView key) {
  Writer w;
  w.blob(summand).blob(tag).blob(key);
  return w.take();
}

// Mutants of one share record: every truncation, each length word at ±1, 0
// and 0xffffffff, tags of 0, 7 and 9 bytes, each key word at kP − 1, kP and
// 2^64 − 1, and re-framed summands and keys one byte off.
std::vector<std::pair<std::string, Bytes>> record_mutants(const Bytes& rec) {
  const std::uint32_t summand_len = read_le32(rec.data());
  const std::size_t tag_at = 4 + summand_len;  // the tag's length word
  const std::size_t key_at = tag_at + 12;      // the key's length word
  const ByteView summand = ByteView(rec).subspan(4, summand_len);
  const ByteView tag = ByteView(rec).subspan(tag_at + 4, 8);
  const ByteView key = ByteView(rec).subspan(key_at + 4, MacKey::kSize);
  std::vector<std::pair<std::string, Bytes>> out;
  for (std::size_t cut = 0; cut < rec.size(); ++cut) {
    out.emplace_back("truncated to " + std::to_string(cut), Bytes(rec.begin(), rec.begin() + cut));
  }
  for (const auto& [name, at] : {std::pair<const char*, std::size_t>{"summand", 0},
                                 {"tag", tag_at},
                                 {"key", key_at}}) {
    const std::uint32_t orig = read_le32(rec.data() + at);
    for (const std::uint32_t v : {orig - 1, orig + 1, 0u, 0xffffffffu}) {
      Bytes m = rec;
      put_u32(m, at, v);
      out.emplace_back(std::string(name) + " length " + std::to_string(v), m);
    }
  }
  for (const std::size_t len : {0u, 7u, 9u}) {
    Bytes t(tag.begin(), tag.end());
    t.resize(len, 0x5a);
    out.emplace_back("tag of " + std::to_string(len) + " bytes", share_record(summand, t, key));
  }
  for (const std::size_t word : {0u, 8u}) {
    for (const std::uint64_t v : {Fp::kP - 1, Fp::kP, ~std::uint64_t{0}}) {
      Bytes m = rec;
      put_u64(m, key_at + 4 + word, v);
      out.emplace_back("key word " + std::to_string(word / 8) + " = " + std::to_string(v), m);
    }
  }
  Bytes longer(summand.begin(), summand.end());
  longer.push_back(3);
  out.emplace_back("summand one byte longer", share_record(longer, tag, key));
  out.emplace_back("summand one byte shorter", share_record(summand.first(summand.size() - 1), tag, key));
  Bytes long_key(key.begin(), key.end());
  long_key.push_back(0);
  out.emplace_back("key of 17 bytes", share_record(summand, tag, long_key));
  out.emplace_back("key of 15 bytes", share_record(summand, tag, key.first(15)));
  return out;
}

TEST(DealtStreamRobustness, ReceiptMatchesFieldWalkOnMutants) {
  for (const Bytes& good : dealt_bodies()) {
    const std::size_t last = last_share(good);
    const Bytes rec(good.begin() + static_cast<std::ptrdiff_t>(last) + 4, good.end());
    ASSERT_TRUE(reference_well_formed(rec));
    const auto receives = [](const Bytes& body, sim::PartyId id) {
      return fair::AuthStreams::receive(sim::encode_func_output(body), id).has_value();
    };
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const auto& [what, mutant] : record_mutants(rec)) {
      const bool ok = reference_well_formed(mutant);
      EXPECT_EQ(AuthShare2::well_formed(mutant), ok) << what;
      EXPECT_EQ(AuthShare2::from_bytes(mutant).has_value(), ok) << what;
      // The mutant as the body's last record, under a matching outer length.
      Writer w;
      w.raw(ByteView(good).first(last)).blob(mutant);
      const Bytes body = w.take();
      ASSERT_EQ(reference_accepts(body), ok) << what;
      for (const sim::PartyId id : {0, 1}) EXPECT_EQ(receives(body, id), ok) << what;
      // A key word is a field element: below kP only.
      if (what.starts_with("key word")) {
        EXPECT_EQ(ok, what.ends_with("= " + std::to_string(Fp::kP - 1))) << what;
      }
      ++(ok ? accepted : rejected);
    }
    // Both verdicts occur: a 7- or 9-byte tag, a 17-byte key and a key word
    // of kP − 1 still parse.
    EXPECT_GE(accepted, 5u);
    EXPECT_GE(rejected, rec.size());
    // The body cut anywhere inside its last record, and the record's outer
    // length word rewritten.
    for (std::size_t cut = last; cut < good.size(); ++cut) {
      const Bytes body(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(receives(body, 0)) << "body cut at " << cut;
    }
    const std::uint32_t outer = read_le32(good.data() + last);
    for (const std::uint32_t v : {outer - 1, outer + 1, 0u, 0xffffffffu}) {
      Bytes body = good;
      put_u32(body, last, v);
      EXPECT_EQ(receives(body, 0), reference_accepts(body)) << "outer length " << v;
      EXPECT_EQ(receives(body, 1), reference_accepts(body)) << "outer length " << v;
    }
  }
}

// Reconstruction as it read before the view-based path: the by-value share,
// the opening copied out of the message, the first opening of round j from
// the peer wins.
std::optional<Bytes> reference_reconstruct(const AuthShare2& mine, std::size_t j,
                                           sim::PartyId peer,
                                           const std::vector<sim::Message>& in) {
  for (const sim::Message& m : in) {
    if (m.from != peer) continue;
    const auto dec = fair::decode_gk_opening(m.payload);
    if (dec && dec->first == j) {
      return auth_reconstruct2(mine, Bytes(dec->second.begin(), dec->second.end()));
    }
  }
  return std::nullopt;
}

// Record k of a dealt body, parsed by value.
AuthShare2 body_share(const Bytes& body, std::size_t k) {
  Reader r(body);
  (void)r.u32();
  for (std::size_t i = 0; i < k; ++i) (void)r.blob_view();
  return *AuthShare2::from_bytes(*r.blob_view());
}

TEST(DealtStreamRobustness, ReconstructFromViewsMatchesByValue) {
  const std::vector<Bytes> bodies = dealt_bodies();
  for (const sim::PartyId id : {0, 1}) {
    const sim::PartyId peer = 1 - id;
    const auto me = fair::AuthStreams::receive(sim::encode_func_output(bodies[id]), id);
    const auto them = fair::AuthStreams::receive(sim::encode_func_output(bodies[peer]), peer);
    ASSERT_TRUE(me && them);
    for (std::size_t j = 1; j <= kDealtRounds; ++j) {
      // p1 reconstructs the a-stream (record 2j − 1), p2 the b-stream (2j).
      const AuthShare2 mine = body_share(bodies[id], id == 0 ? 2 * j - 1 : 2 * j);
      const AuthShare2 theirs = body_share(bodies[peer], id == 0 ? 2 * j - 1 : 2 * j);
      const std::vector<sim::Message> opened = them->opening(j);
      ASSERT_EQ(opened.size(), 1u);
      const sim::Message& open = opened[0];
      EXPECT_EQ(open.payload, fair::encode_gk_opening(j, theirs.opening_to_bytes()));
      const std::size_t other_j = j % kDealtRounds + 1;

      std::vector<std::pair<std::string, std::vector<sim::Message>>> inboxes;
      inboxes.emplace_back("valid", std::vector<sim::Message>{open});
      for (std::size_t at = 0; at < open.payload.size(); ++at) {
        for (const int mask : {0x01, 0x80}) {
          sim::Message m = open;
          m.payload[at] = static_cast<std::uint8_t>(m.payload[at] ^ mask);
          inboxes.emplace_back("flip " + std::to_string(at) + "/" + std::to_string(mask),
                               std::vector<sim::Message>{m});
          inboxes.emplace_back("flip then valid " + std::to_string(at),
                               std::vector<sim::Message>{m, open});
          inboxes.emplace_back("valid then flip " + std::to_string(at),
                               std::vector<sim::Message>{open, m});
        }
      }
      inboxes.emplace_back("wrong j", them->opening(other_j));
      sim::Message from_self = open;
      from_self.from = id;
      sim::Message from_third = open;
      from_third.from = 2;
      inboxes.emplace_back("from myself", std::vector<sim::Message>{from_self});
      inboxes.emplace_back("from party 2", std::vector<sim::Message>{from_third});
      inboxes.emplace_back("wrong sender then valid",
                           std::vector<sim::Message>{from_self, from_third, open});
      sim::Message trailing = open;
      trailing.payload.push_back(0);
      inboxes.emplace_back("trailing byte", std::vector<sim::Message>{trailing});
      Bytes long_opening = theirs.opening_to_bytes();
      long_opening.push_back(0);
      inboxes.emplace_back(
          "trailing byte in the opening",
          std::vector<sim::Message>{sim::Message{peer, id, fair::encode_gk_opening(j, long_opening)}});
      std::vector<sim::Message> two = them->opening(other_j);
      two.push_back(open);
      inboxes.emplace_back("wrong j then valid", two);
      inboxes.emplace_back("two valid", std::vector<sim::Message>{open, open});

      const auto expect_valid = reference_reconstruct(mine, j, peer, {open});
      ASSERT_TRUE(expect_valid.has_value());
      for (const auto& [what, in] : inboxes) {
        EXPECT_EQ(me->reconstruct(j, in), reference_reconstruct(mine, j, peer, in))
            << what << ", p" << id << " j " << j;
      }
      EXPECT_EQ(me->reconstruct(0, {open}), std::nullopt);
      EXPECT_EQ(me->reconstruct(kDealtRounds + 1, {open}), std::nullopt);
    }
  }
}

// Clones share the dealt body and the parameters with the original; driving
// a pair of clones to completion must leave the originals exactly where they
// were, and the originals must then finish the same way.
template <typename Party, typename Params>
void expect_clone_isolation(const Params& params) {
  const auto shared = std::make_shared<const Params>(params);
  const std::vector<Bytes> bodies = dealt_bodies();
  Party p1(0, shared, Bytes{1});
  Party p2(1, shared, Bytes{1});
  (void)p1.on_round(0, {});
  (void)p2.on_round(0, {});
  const std::vector<sim::Message> out1 = p1.on_round(1, {dealer_output(0, bodies[0])});
  const std::vector<sim::Message> out2 = p2.on_round(1, {dealer_output(1, bodies[1])});

  // Exchange openings between two parties until both are done.
  const auto drive = [&](sim::IParty& a, sim::IParty& b) {
    std::vector<sim::Message> to_a = out2;
    std::vector<sim::Message> to_b = out1;
    for (int round = 2; round < 64 && !(a.done() && b.done()); ++round) {
      std::vector<sim::Message> from_a = a.done() ? std::vector<sim::Message>{}
                                                  : a.on_round(round, to_a);
      std::vector<sim::Message> from_b = b.done() ? std::vector<sim::Message>{}
                                                  : b.on_round(round, to_b);
      to_a = std::move(from_b);
      to_b = std::move(from_a);
    }
  };

  const std::unique_ptr<sim::IParty> c1 = p1.clone();
  const std::unique_ptr<sim::IParty> c2 = p2.clone();
  drive(*c1, *c2);
  ASSERT_TRUE(c1->done() && c2->done());
  EXPECT_EQ(c1->output(), std::optional<Bytes>(Bytes{1}));
  EXPECT_EQ(c2->output(), std::optional<Bytes>(Bytes{1}));
  for (const Party* p : {&p1, &p2}) {
    EXPECT_FALSE(p->done());
    EXPECT_EQ(p->iteration(), 1u);
    EXPECT_EQ(p->last_value(), Bytes{7});  // still the fallback
  }

  drive(p1, p2);
  EXPECT_EQ(p1.output(), c1->output());
  EXPECT_EQ(p2.output(), c2->output());
  EXPECT_EQ(p1.iteration(), kDealtRounds);
}

TEST(DealtStreamRobustness, GkCloneRunToCompletionLeavesOriginalUntouched) {
  expect_clone_isolation<fair::GkParty>(fair::make_gk_and_params(2));
}

TEST(DealtStreamRobustness, Partial1pCloneRunToCompletionLeavesOriginalUntouched) {
  expect_clone_isolation<fair::Partial1pParty>(fair::make_partial_1p_and_params(2));
}

// The Lamport parties (ΠOptnSFE and Lemma 18) keep the dealt verification
// key behind a shared_ptr. Past the func-output step a clone holds the
// original's key by pointer; driving a clone to completion on a forged and on
// a valid announcement must leave the original where it was, and the original
// must then finish as the clone did. Each inbox also carries a "1" flag, so a
// Lemma 18 p_{i*} tosses its coin from the Rng its clone copied.
sim::Message priv_output(sim::PartyId to, const LamportKeyPair& kp, const Bytes& y,
                         const Bytes& sig, bool holder) {
  sim::FuncOutputWriter f;
  Writer& w = f.body();
  if (holder) {
    w.u8(1).blob(y).blob(sig);
  } else {
    w.u8(0);
  }
  w.blob(kp.verification_key);
  return sim::Message{sim::kFunc, to, f.take()};
}

using Sent = std::vector<std::tuple<sim::PartyId, sim::PartyId, Bytes>>;

// Run `party` to completion, `first` as its first inbox and nothing after.
Sent drive_to_completion(sim::IParty& party, const std::vector<sim::Message>& first) {
  Sent sent;
  const std::vector<sim::Message> none;
  for (int round = 2; round < 8 && !party.done(); ++round) {
    for (sim::Message& m : party.on_round(round, round == 2 ? first : none)) {
      sent.emplace_back(m.from, m.to, std::move(m.payload));
    }
  }
  EXPECT_TRUE(party.done());
  return sent;
}

template <typename Party>
void expect_clone_isolation(Party party, bool holder) {
  Rng rng(2500);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes y{1, 2, 3};
  const Bytes sig = lamport_sign(kp.signing_key, y);
  Bytes forged = sig;
  forged[0] ^= 1;
  const sim::PartyId id = party.id();
  const sim::PartyId peer = id == 0 ? 1 : 0;
  const auto inbox = [&](const Bytes& s) {
    return std::vector<sim::Message>{
        sim::Message{peer, id, fair::encode_flag(1)},
        sim::Message{peer, sim::kBroadcast, fair::encode_announcement(std::make_pair(y, s))}};
  };

  (void)party.on_round(0, {});
  (void)party.on_round(1, {priv_output(id, kp, y, sig, holder)});
  ASSERT_FALSE(party.done());
  const Bytes* vk = fair::LamportPartyPeek::vk(party);
  ASSERT_NE(vk, nullptr);
  ASSERT_EQ(*vk, kp.verification_key);

  Sent valid_sent;
  for (const bool valid : {false, true}) {
    const std::unique_ptr<sim::IParty> clone = party.clone();
    EXPECT_EQ(fair::LamportPartyPeek::vk(static_cast<const Party&>(*clone)), vk);
    const Sent sent = drive_to_completion(*clone, inbox(valid ? sig : forged));
    // p_{i*} adopts its own value; anyone else only a validly signed one.
    EXPECT_EQ(clone->output(), holder || valid ? std::optional<Bytes>(y) : std::nullopt);
    if (valid) valid_sent = sent;
    EXPECT_FALSE(party.done());
    EXPECT_EQ(party.output(), std::nullopt);
    EXPECT_EQ(fair::LamportPartyPeek::vk(party), vk);
    EXPECT_EQ(*vk, kp.verification_key);
  }

  EXPECT_EQ(drive_to_completion(party, inbox(sig)), valid_sent);
  EXPECT_EQ(party.output(), std::optional<Bytes>(y));
}

TEST(LamportClone, OptnCloneSharesKeyAndLeavesOriginalUntouched) {
  expect_clone_isolation(fair::OptNParty(0, Bytes{1}), true);
  expect_clone_isolation(fair::OptNParty(1, Bytes{2}), false);
}

TEST(LamportClone, Lemma18CloneSharesKeyAndLeavesOriginalUntouched) {
  expect_clone_isolation(fair::Lemma18Party(0, 3, Bytes{1}, Rng(77)), true);
  expect_clone_isolation(fair::Lemma18Party(1, 3, Bytes{2}, Rng(78)), false);
}

}  // namespace
}  // namespace fairsfe
