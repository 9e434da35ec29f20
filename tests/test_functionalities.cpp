// Tests for the ideal-functionality layer: wire formats, SfeSpec helpers,
// SfeFunc fair/unfair semantics, OT hub behavior, and the per-protocol
// functionalities' abort/gate handling.
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "fair/gmw_half.h"
#include "fair/opt2sfe.h"
#include "fair/optnsfe.h"
#include "mpc/ot.h"
#include "mpc/sfe_functionalities.h"
#include "sim/engine.h"

namespace fairsfe::mpc {
namespace {

// The output a kOutput payload carries, copied out of the payload.
std::optional<Bytes> func_output(ByteView payload) {
  const auto body = sim::decode_func_output(payload);
  if (!body) return std::nullopt;
  return Bytes(body->begin(), body->end());
}

TEST(FuncWire, InputOutputAbortRoundTrip) {
  const Bytes x = bytes_of("input");
  EXPECT_EQ(sim::decode_func_input(sim::encode_func_input(x)), x);
  EXPECT_EQ(func_output(sim::encode_func_output(x)), x);
  EXPECT_TRUE(sim::is_func_abort(sim::encode_func_abort()));
  EXPECT_FALSE(sim::is_func_abort(sim::encode_func_output(x)));
  EXPECT_EQ(sim::decode_func_output(sim::encode_func_abort()), std::nullopt);
  EXPECT_EQ(sim::decode_func_input(Bytes{}), std::nullopt);
}

// A body written in place through FuncOutputWriter frames to the same bytes
// as encode_func_output of the finished body, empty and multi-part alike.
TEST(FuncWire, InPlaceFrameMatchesEncoder) {
  EXPECT_EQ(sim::FuncOutputWriter().take(), sim::encode_func_output(Bytes{}));
  sim::FuncOutputWriter f(3);
  f.body().u8(7).blob(bytes_of("vk")).u64(9);
  Writer body;
  body.u8(7).blob(bytes_of("vk")).u64(9);
  const Bytes payload = f.take();
  EXPECT_EQ(payload, sim::encode_func_output(body.bytes()));
  EXPECT_EQ(func_output(payload), body.bytes());
  EXPECT_EQ(payload.size(), sim::FuncOutputWriter::kHeader + body.bytes().size());
}

TEST(SfeSpec, ConcatAndDefaults) {
  const SfeSpec spec = make_concat_spec(3, 2);
  const Bytes y = spec.eval({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(y, (Bytes{1, 2, 3, 4, 5, 6}));
  // Short inputs are zero-padded to the fixed width.
  EXPECT_EQ(spec.eval({{9}, {}, {5, 6}}), (Bytes{9, 0, 0, 0, 5, 6}));
  EXPECT_EQ(spec.eval_with_defaults({{1, 2}, {3, 4}, {5, 6}}, {0, 2}),
            (Bytes{1, 2, 0, 0, 5, 6}));
}

TEST(SfeSpec, AndMillionairesMax) {
  EXPECT_EQ(make_and_spec().eval({{1}, {1}}), Bytes{1});
  EXPECT_EQ(make_and_spec().eval({{1}, {0}}), Bytes{0});
  Writer a, b;
  a.u64(10);
  b.u64(20);
  EXPECT_EQ(make_millionaires_spec().eval({a.bytes(), b.bytes()}), Bytes{0});
  const SfeSpec mx = make_max_spec(3);
  Writer c;
  c.u64(15);
  const Bytes y = mx.eval({a.bytes(), b.bytes(), c.bytes()});
  Reader r(y);
  EXPECT_EQ(r.u64(), 20u);
}

TEST(SfeSpec, CircuitSpecMatchesEvaluator) {
  const auto c = circuit::make_millionaires_circuit(8);
  const SfeSpec spec = make_circuit_spec(c);
  EXPECT_EQ(spec.n, 2u);
  EXPECT_EQ(spec.eval({Bytes{200}, Bytes{100}}), Bytes{1});
  EXPECT_EQ(spec.eval({Bytes{100}, Bytes{200}}), Bytes{0});
}

// Driver: run a functionality standalone against scripted inputs.
struct GateSpy : public sim::FuncContext {
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override {
    return corrupted_;
  }
  bool adversary_abort_gate(const std::vector<sim::Message>& outs) override {
    gate_called = true;
    shown = outs;
    return abort_decision;
  }

  int n_ = 2;
  Rng rng_{123};
  std::set<sim::PartyId> corrupted_;
  bool abort_decision = false;
  bool gate_called = false;
  std::vector<sim::Message> shown;
};

std::vector<sim::Message> inputs_for(const SfeSpec& spec, const std::vector<Bytes>& xs) {
  std::vector<sim::Message> in;
  for (std::size_t p = 0; p < xs.size(); ++p) {
    in.push_back(sim::Message{static_cast<sim::PartyId>(p), sim::kFunc,
                              sim::encode_func_input(xs[p])});
  }
  (void)spec;
  return in;
}

TEST(SfeFunc, UnfairShowsCorruptedOutputsAtGate) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  ctx.corrupted_ = {1};
  SfeFunc f(spec, SfeMode::kUnfairAbort);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{7}, {9}}));
  ASSERT_TRUE(ctx.gate_called);
  ASSERT_EQ(ctx.shown.size(), 1u);
  EXPECT_EQ(ctx.shown[0].to, 1);
  EXPECT_EQ(func_output(ctx.shown[0].payload), (Bytes{7, 9}));
  ASSERT_EQ(out.size(), 2u);
  for (const auto& m : out) EXPECT_TRUE(sim::decode_func_output(m.payload).has_value());
}

TEST(SfeFunc, UnfairAbortKeepsCorruptedOutput) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  ctx.corrupted_ = {1};
  ctx.abort_decision = true;
  SfeFunc f(spec, SfeMode::kUnfairAbort);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{7}, {9}}));
  for (const auto& m : out) {
    if (m.to == 0) {
      EXPECT_TRUE(sim::is_func_abort(m.payload));  // honest: bot
    }
    if (m.to == 1) {
      EXPECT_TRUE(sim::decode_func_output(m.payload).has_value());  // corrupted: y
    }
  }
}

TEST(SfeFunc, FairGateShowsNothing) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  ctx.corrupted_ = {1};
  SfeFunc f(spec, SfeMode::kFair);
  f.on_round(ctx, 1, inputs_for(spec, {{7}, {9}}));
  ASSERT_TRUE(ctx.gate_called);
  EXPECT_TRUE(ctx.shown.empty());
}

TEST(SfeFunc, FairAbortDeniesEveryone) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  ctx.corrupted_ = {1};
  ctx.abort_decision = true;
  SfeFunc f(spec, SfeMode::kFair);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{7}, {9}}));
  for (const auto& m : out) EXPECT_TRUE(sim::is_func_abort(m.payload));
}

TEST(SfeFunc, MissingInputAbortsPreCompute) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  SfeFunc f(spec, SfeMode::kUnfairAbort);
  const auto out =
      f.on_round(ctx, 1, {sim::Message{0, sim::kFunc, sim::encode_func_input(Bytes{7})}});
  EXPECT_FALSE(ctx.gate_called);  // nothing computed, nothing shown
  ASSERT_EQ(out.size(), 2u);
  for (const auto& m : out) EXPECT_TRUE(sim::is_func_abort(m.payload));
}

TEST(SfeFunc, FiresOnlyOnce) {
  const SfeSpec spec = make_concat_spec(2, 1);
  GateSpy ctx;
  SfeFunc f(spec, SfeMode::kFair);
  EXPECT_FALSE(f.on_round(ctx, 1, inputs_for(spec, {{1}, {2}})).empty());
  EXPECT_TRUE(f.on_round(ctx, 2, inputs_for(spec, {{1}, {2}})).empty());
}

TEST(SfeFunc, NotesRecordOutcome) {
  const SfeSpec spec = make_concat_spec(2, 1);
  auto notes = std::make_shared<Notes>();
  GateSpy ctx;
  SfeFunc f(spec, SfeMode::kUnfairAbort, notes);
  f.on_round(ctx, 1, inputs_for(spec, {{7}, {9}}));
  EXPECT_EQ(notes->blobs.at("sfe_y"), (Bytes{7, 9}));
  EXPECT_EQ(notes->vals.at("sfe_aborted"), 0u);
}

// deal_through_gate hands the gate the corrupted parties' framed payloads,
// exactly and in send order, and delivers those same bytes to them whatever
// the gate decides; honest parties get the abort notice only on an abort.
TEST(DealThroughGate, GateSeesCorruptedPayloadsInSendOrder) {
  constexpr std::size_t kN = 4;
  const SfeSpec spec = make_concat_spec(kN, 1);
  // A distinct payload per party, long enough to live on the heap.
  const auto payload_of = [](std::size_t p) {
    sim::FuncOutputWriter f;
    f.body().u8(static_cast<std::uint8_t>(p)).blob(Bytes(300, static_cast<std::uint8_t>(p)));
    return f.take();
  };
  const Dealer deal = [&](const std::vector<Bytes>& xs) {
    EXPECT_EQ(xs.size(), kN);
    std::vector<Bytes> payloads;
    for (std::size_t p = 0; p < kN; ++p) payloads.push_back(payload_of(p));
    return payloads;
  };
  for (const bool abort : {false, true}) {
    auto notes = std::make_shared<Notes>();
    GateSpy ctx;
    ctx.n_ = static_cast<int>(kN);
    ctx.corrupted_ = {3, 1};
    ctx.abort_decision = abort;
    const auto out =
        deal_through_gate(ctx, inputs_for(spec, {{1}, {2}, {3}, {4}}), kN, notes, deal);
    ASSERT_TRUE(ctx.gate_called);
    ASSERT_EQ(ctx.shown.size(), 2u);
    EXPECT_EQ(ctx.shown[0].to, 1);
    EXPECT_EQ(ctx.shown[1].to, 3);
    for (const sim::Message& m : ctx.shown) {
      EXPECT_EQ(m.from, sim::kFunc);
      EXPECT_EQ(m.payload, payload_of(static_cast<std::size_t>(m.to)));
    }
    ASSERT_EQ(out.size(), kN);
    for (std::size_t p = 0; p < kN; ++p) {
      const sim::Message& m = out[p];
      EXPECT_EQ(m.from, sim::kFunc);
      EXPECT_EQ(m.to, static_cast<sim::PartyId>(p));
      const bool corrupted = p == 1 || p == 3;
      EXPECT_EQ(m.payload, abort && !corrupted ? sim::encode_func_abort() : payload_of(p))
          << "party " << p << (abort ? ", gate aborted" : ", gate passed");
    }
    EXPECT_EQ(notes->vals.at("phase1_aborted"), abort ? 1u : 0u);
  }
}

TEST(OtHub, DeliversChosenMessage) {
  OtHub hub;
  GateSpy ctx;
  std::vector<sim::Message> in = {
      {0, sim::kFunc, encode_ot_send(42, false, true)},
      {1, sim::kFunc, encode_ot_choose(42, true)},
  };
  const auto out = hub.on_round(ctx, 1, in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1);
  const auto res = decode_ot_result(out[0].payload);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->label, 42u);
  EXPECT_TRUE(res->value);  // m1
}

TEST(OtHub, LateCounterpartStillCompletes) {
  OtHub hub;
  GateSpy ctx;
  EXPECT_TRUE(hub.on_round(ctx, 1, {{0, sim::kFunc, encode_ot_send(7, true, false)}})
                  .empty());
  const auto out = hub.on_round(ctx, 2, {{1, sim::kFunc, encode_ot_choose(7, false)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(decode_ot_result(out[0].payload)->value);  // m0 = true
}

TEST(OtHub, FirstSubmissionWinsAndDeliversOnce) {
  OtHub hub;
  GateSpy ctx;
  std::vector<sim::Message> in = {
      {0, sim::kFunc, encode_ot_send(5, false, false)},
      {0, sim::kFunc, encode_ot_send(5, true, true)},  // overwrite attempt: ignored
      {1, sim::kFunc, encode_ot_choose(5, false)},
  };
  auto out = hub.on_round(ctx, 1, in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(decode_ot_result(out[0].payload)->value);
  // No duplicate delivery on later rounds.
  EXPECT_TRUE(hub.on_round(ctx, 2, {}).empty());
}

TEST(ProtocolFuncs, Opt2ShareGateAndNotes) {
  const SfeSpec spec = make_concat_spec(2, 2);
  auto notes = std::make_shared<Notes>();
  GateSpy ctx;
  ctx.corrupted_ = {0};
  fair::Opt2ShareFunc f(spec, notes);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{1, 2}, {3, 4}}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(notes->blobs.at("y"), (Bytes{1, 2, 3, 4}));
  EXPECT_LE(notes->vals.at("i_hat"), 1u);
  ASSERT_EQ(ctx.shown.size(), 1u);
  EXPECT_EQ(ctx.shown[0].to, 0);
}

TEST(ProtocolFuncs, PrivOutputSignsForExactlyOneParty) {
  const SfeSpec spec = make_concat_spec(3, 1);
  auto notes = std::make_shared<Notes>();
  GateSpy ctx;
  ctx.n_ = 3;
  fair::PrivOutputFunc f(spec, notes);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{1}, {2}, {3}}));
  ASSERT_EQ(out.size(), 3u);
  std::size_t holders = 0;
  std::optional<Bytes> vk;
  for (const auto& m : out) {
    const auto body = sim::decode_func_output(m.payload);
    ASSERT_TRUE(body.has_value());
    const auto priv = fair::decode_priv_output(*body);
    ASSERT_TRUE(priv.has_value());
    const Bytes party_vk(priv->vk.begin(), priv->vk.end());
    if (vk) {
      EXPECT_EQ(party_vk, *vk);  // one key dealt to every party
    }
    vk = party_vk;
    if (priv->has_value) {
      ++holders;
      EXPECT_EQ(Bytes(priv->y.begin(), priv->y.end()), (Bytes{1, 2, 3}));
      EXPECT_TRUE(lamport_verify(party_vk, priv->y, priv->sig));
      EXPECT_EQ(static_cast<std::uint64_t>(m.to), notes->vals.at("i_star"));
    }
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ProtocolFuncs, ShamirDealSharesReconstruct) {
  const SfeSpec spec = make_concat_spec(4, 1);
  GateSpy ctx;
  ctx.n_ = 4;
  fair::ShamirDealFunc f(spec);
  const auto out = f.on_round(ctx, 1, inputs_for(spec, {{1}, {2}, {3}, {4}}));
  ASSERT_EQ(out.size(), 4u);
  std::vector<ShamirShare> shares;
  for (const auto& m : out) {
    const auto body = sim::decode_func_output(m.payload);
    ASSERT_TRUE(body.has_value());
    Reader r(*body);
    const auto sb = r.blob();
    ASSERT_TRUE(sb.has_value());
    const auto share = ShamirShare::from_bytes(*sb);
    ASSERT_TRUE(share.has_value());
    shares.push_back(*share);
  }
  const auto y = shamir_reconstruct_bytes(shares, fair::half_gmw_threshold(4));
  EXPECT_EQ(y, (Bytes{1, 2, 3, 4}));
  // Below threshold: nothing.
  std::vector<ShamirShare> two(shares.begin(), shares.begin() + 2);
  EXPECT_EQ(shamir_reconstruct_bytes(two, fair::half_gmw_threshold(4)), std::nullopt);
}

}  // namespace
}  // namespace fairsfe::mpc
