// Golden-equivalence tests for the zero-copy hot path: toggling transcripts,
// sharing circuit plans, switching to in-place crypto streams, and sharding
// the estimator across threads must all leave execution results bit-identical
// — they are performance knobs, not semantic ones.
#include <gtest/gtest.h>

#include <numeric>

#include "adversary/lock_abort.h"
#include "circuit/builder.h"
#include "circuit/compiled.h"
#include "crypto/chacha20.h"
#include "crypto/rng.h"
#include "mpc/gmw.h"
#include "mpc/ot.h"
#include "rpd/estimator.h"
#include "sim/engine.h"

namespace fairsfe {
namespace {

using sim::Message;
using sim::MsgView;

// Layout tripwire: 32 bytes of padding in Rng or ChaCha20, with no change in
// work, moved optn_lamport's runs/s by about 15% (the sizeof(Rng) FOUND line
// in CHANGES.md). A change to either size has to re-measure that workload on
// purpose and then update these numbers. Pinned where they were measured:
// x86-64 with libstdc++.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(Rng) == 184, "sizeof(Rng) changed: re-measure optn_lamport");
static_assert(sizeof(ChaCha20) == 160, "sizeof(ChaCha20) changed: re-measure optn_lamport");
#endif

sim::ExecutionResult run_gmw_millionaires(std::shared_ptr<const mpc::GmwConfig> cfg,
                                          std::uint64_t seed,
                                          sim::ExecutionOptions opts = {}) {
  Rng rng(seed);
  std::vector<std::vector<bool>> inputs = {
      circuit::u64_to_bits(rng.below(256), 8),
      circuit::u64_to_bits(rng.below(256), 8)};
  auto parties = mpc::make_gmw_parties(cfg, inputs, rng);
  sim::Engine e(std::move(parties), std::make_unique<mpc::OtHub>(), nullptr,
                rng.fork("engine"), opts);
  return e.run();
}

std::shared_ptr<const mpc::GmwConfig> millionaires_cfg() {
  return std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_millionaires_circuit(8)));
}

TEST(Hotpath, TranscriptToggleDoesNotChangeExecution) {
  const auto cfg = millionaires_cfg();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    sim::ExecutionOptions off;  // record_transcript defaults to false
    sim::ExecutionOptions on;
    on.record_transcript = true;

    const auto quiet = run_gmw_millionaires(cfg, seed, off);
    const auto logged = run_gmw_millionaires(cfg, seed, on);

    EXPECT_EQ(quiet.outputs, logged.outputs) << "seed " << seed;
    EXPECT_EQ(quiet.rounds, logged.rounds);
    EXPECT_EQ(quiet.stats.messages, logged.stats.messages);
    EXPECT_EQ(quiet.stats.payload_bytes, logged.stats.payload_bytes);

    // The only difference: the logged run paid for its transcript.
    EXPECT_TRUE(quiet.transcript.empty());
    EXPECT_EQ(quiet.stats.bytes_copied, 0u);
    EXPECT_FALSE(logged.transcript.empty());
    EXPECT_GT(logged.stats.bytes_copied, 0u);
    EXPECT_EQ(logged.transcript_lines().size(), logged.transcript.size());
  }
}

TEST(Hotpath, CachedPlanMatchesPrivateRebuild) {
  // public_output() attaches a shared CompiledCircuit; clearing it forces
  // each GmwParty to build a private plan. Same circuit, same seed => the
  // executions must be indistinguishable.
  const auto cached = millionaires_cfg();
  auto rebuilt_cfg = *cached;  // copies circuit + output_map
  rebuilt_cfg.plan = nullptr;
  const auto rebuilt = std::make_shared<const mpc::GmwConfig>(std::move(rebuilt_cfg));

  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const auto a = run_gmw_millionaires(cached, seed);
    const auto b = run_gmw_millionaires(rebuilt, seed);
    EXPECT_EQ(a.outputs, b.outputs) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(a.stats.payload_bytes, b.stats.payload_bytes);
  }
}

TEST(Hotpath, ResolveScheduleCoversEveryNonInputGateOnce) {
  for (const circuit::Circuit& c : {circuit::make_millionaires_circuit(8),
                                    circuit::make_max_circuit(3, 4),
                                    circuit::make_concat_circuit(2, 8)}) {
    const auto plan = circuit::CompiledCircuit::build(c);
    ASSERT_EQ(plan.num_resolve_steps(), plan.num_and_layers() + 1);

    std::size_t non_input = 0, and_gates = 0;
    for (const auto& g : c.gates()) {
      if (g.type != circuit::GateType::kInput) ++non_input;
      if (g.type == circuit::GateType::kAnd) ++and_gates;
    }
    EXPECT_EQ(plan.num_and_gates(), and_gates);

    std::size_t scheduled = 0;
    std::vector<char> seen(c.gates().size(), 0);
    for (std::size_t k = 0; k < plan.num_resolve_steps(); ++k) {
      const auto step = plan.resolve_step(k);
      scheduled += step.size();
      for (std::size_t i = 0; i < step.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(step[i - 1], step[i]);  // ascending = topological
        }
        EXPECT_EQ(seen[step[i]], 0);
        seen[step[i]] = 1;
        EXPECT_NE(c.gates()[step[i]].type, circuit::GateType::kInput);
      }
    }
    EXPECT_EQ(scheduled, non_input);

    // Layer d's AND gates resolve at step d+1 (right after their OT batch).
    for (std::size_t d = 0; d < plan.num_and_layers(); ++d) {
      const auto layer = plan.and_layer(d);
      const auto step = plan.resolve_step(d + 1);
      for (const std::uint32_t g : layer) {
        EXPECT_NE(std::find(step.begin(), step.end(), g), step.end())
            << "AND gate " << g << " missing from step " << d + 1;
      }
    }
  }
}

TEST(Hotpath, ChaChaFillMatchesKeystream) {
  const Bytes key(ChaCha20::kKeySize, 0x42);
  const Bytes nonce(ChaCha20::kNonceSize, 0x07);
  ChaCha20 a(key, nonce);
  ChaCha20 b(key, nonce);
  // Chunk sizes chosen to straddle the 64-byte block boundary.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 7u, 128u, 3u}) {
    const Bytes expect = a.keystream(n);
    Bytes got(n);
    b.fill(got.data(), n);
    EXPECT_EQ(got, expect) << "chunk " << n;
  }
}

TEST(Hotpath, ChaChaXorIntoMatchesProcess) {
  const Bytes key(ChaCha20::kKeySize, 0x11);
  const Bytes nonce(ChaCha20::kNonceSize, 0x22);
  ChaCha20 a(key, nonce);
  ChaCha20 b(key, nonce);
  Bytes data(150);
  std::iota(data.begin(), data.end(), std::uint8_t{0});
  const Bytes expect = a.process(data);
  Bytes in_place = data;
  b.xor_into(in_place);
  EXPECT_EQ(in_place, expect);
  // Round-trip: xor with the same keystream position decrypts.
  ChaCha20 c(key, nonce);
  c.xor_into(in_place);
  EXPECT_EQ(in_place, data);
}

TEST(Hotpath, RngFillMatchesBytesAndKeepsStreamAlignment) {
  Rng a(2015), b(2015);
  const Bytes expect = a.bytes(37);
  Bytes got(37);
  b.fill(got);
  EXPECT_EQ(got, expect);
  // Subsequent draws stay aligned: fill() consumed exactly 37 bytes.
  EXPECT_EQ(a.u64(), b.u64());
  EXPECT_EQ(a.bit(), b.bit());
  EXPECT_EQ(a.bytes(9), [&] { Bytes v(9); b.fill(v); return v; }());
}

TEST(Hotpath, EstimatorThreadsShareGmwPlanBitIdentically) {
  // The shared CompiledCircuit is read concurrently by every worker thread's
  // parties; results must not depend on the thread count. (Also the TSan
  // gate's coverage of the plan cache.)
  const auto cfg = millionaires_cfg();
  rpd::SetupFactory factory = [cfg](Rng& rng) {
    rpd::RunSetup s;
    std::vector<std::vector<bool>> inputs = {
        circuit::u64_to_bits(rng.below(256), 8),
        circuit::u64_to_bits(rng.below(256), 8)};
    const Bytes y = circuit::bits_to_bytes(cfg->circuit.eval(inputs));
    s.parties = mpc::make_gmw_parties(cfg, inputs, rng);
    s.functionality = std::make_unique<mpc::OtHub>();
    s.adversary =
        std::make_unique<adversary::LockAbortAdversary>(std::set<sim::PartyId>{0}, y);
    s.engine.max_rounds = 64;
    return s;
  };
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  rpd::EstimatorOptions opts;
  opts.runs = 192;
  opts.seed = 77;
  opts.threads = 1;
  const auto seq = rpd::estimate_utility(factory, gamma, opts);
  opts.threads = 8;
  const auto par = rpd::estimate_utility(factory, gamma, opts);
  EXPECT_EQ(seq.utility, par.utility);
  EXPECT_EQ(seq.std_error, par.std_error);
  EXPECT_EQ(seq.event_freq, par.event_freq);
  EXPECT_EQ(seq.run_events, par.run_events);
}

TEST(Hotpath, MsgViewFiltersPreserveOrderWithoutCopying) {
  const std::vector<Message> round = {
      {0, 1, Bytes{1}},              // p0 -> p1
      {1, sim::kBroadcast, Bytes{2}},  // broadcast
      {2, sim::kFunc, Bytes{3}},     // p2 -> functionality
      {1, 0, Bytes{4}},              // p1 -> p0
      {0, 2, Bytes{5}},              // p0 -> p2
  };
  MsgView all(round);
  EXPECT_EQ(all.count(), 5u);

  const auto to_p1 = all.addressed_to(1).materialize();  // direct + broadcast
  ASSERT_EQ(to_p1.size(), 2u);
  EXPECT_EQ(to_p1[0].payload, Bytes{1});
  EXPECT_EQ(to_p1[1].payload, Bytes{2});

  const auto func = all.addressed_to(sim::kFunc);
  EXPECT_EQ(func.count(), 1u);
  EXPECT_EQ(func.begin()->payload, Bytes{3});

  const std::set<sim::PartyId> corrupted = {2};
  const auto visible = all.visible_to(corrupted).materialize();
  ASSERT_EQ(visible.size(), 2u);  // broadcast + p0 -> p2; kFunc traffic hidden
  EXPECT_EQ(visible[0].payload, Bytes{2});
  EXPECT_EQ(visible[1].payload, Bytes{5});

  // Indexed (mailbox-style) view: indices into the round buffer.
  const std::uint32_t idx[] = {3, 1};
  MsgView mailbox(round.data(), idx, 2);
  const auto mat = mailbox.materialize();
  ASSERT_EQ(mat.size(), 2u);
  EXPECT_EQ(mat[0].payload, Bytes{4});  // index order, not buffer order
  EXPECT_EQ(mat[1].payload, Bytes{2});

  const Message* from_p1 = sim::first_from(all, 1);
  ASSERT_NE(from_p1, nullptr);
  EXPECT_EQ(from_p1->payload, Bytes{2});
  // The pointer aliases the viewed storage — zero-copy.
  EXPECT_EQ(from_p1, &round[1]);
  EXPECT_EQ(sim::first_from(all, 9), nullptr);
}

TEST(Hotpath, RoutingStatsCountBroadcastSharing) {
  // A party that broadcasts once: payload stored once, n-1 recipient copies
  // avoided, none made.
  class Shout final : public sim::PartyBase<Shout> {
   public:
    explicit Shout(sim::PartyId id) : PartyBase(id) {}
    std::vector<Message> on_round(int round, MsgView) override {
      if (round == 0 && id_ == 0) {
        return {{id_, sim::kBroadcast, Bytes(100, 0xAA)}};
      }
      finish({});
      return {};
    }
    void on_abort() override { finish_bot(); }
  };
  std::vector<std::unique_ptr<sim::IParty>> parties;
  for (sim::PartyId p = 0; p < 4; ++p) parties.push_back(std::make_unique<Shout>(p));
  const auto r = sim::run_honest(std::move(parties), Rng(1));
  EXPECT_EQ(r.stats.broadcast_messages, 1u);
  EXPECT_EQ(r.stats.payload_bytes, 100u);
  EXPECT_EQ(r.stats.bytes_copied, 0u);
  // Pre-mailbox engines copied a broadcast to each of the 4 parties.
  EXPECT_EQ(r.stats.bytes_copy_avoided, 400u);
}

TEST(Hotpath, OtHubTombstoneSuppressesReplay) {
  class NullCtx final : public sim::FuncContext {
   public:
    [[nodiscard]] int n() const override { return 2; }
    Rng& rng() override { return rng_; }
    [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override {
      return corrupted_;
    }
    bool adversary_abort_gate(const std::vector<Message>&) override { return false; }

   private:
    Rng rng_{0};
    std::set<sim::PartyId> corrupted_;
  };
  mpc::OtHub hub;
  NullCtx ctx;
  const std::vector<Message> both = {
      {0, sim::kFunc, mpc::encode_ot_send(9, true, false)},
      {1, sim::kFunc, mpc::encode_ot_choose(9, false)},
  };
  const auto first = hub.on_round(ctx, 1, both);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(mpc::decode_ot_result(first[0].payload)->value);
  // Replaying the complete pair must not trigger a second delivery.
  EXPECT_TRUE(hub.on_round(ctx, 2, both).empty());
  EXPECT_TRUE(hub.on_round(ctx, 3, {}).empty());
}

}  // namespace
}  // namespace fairsfe
