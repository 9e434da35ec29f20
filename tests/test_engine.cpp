// Engine semantics tests: delivery timing, broadcast, rushing visibility,
// adversary authenticity enforcement, probing, and abort finalization.
#include <gtest/gtest.h>

#include "sim/engine.h"

namespace fairsfe::sim {
namespace {

// Sends its payload to a target in round `send_round`, records everything it
// receives, finishes after `lifetime` rounds outputting the concatenation of
// received payloads.
class ScriptParty final : public PartyBase<ScriptParty> {
 public:
  ScriptParty(PartyId id, int send_round, PartyId target, Bytes payload, int lifetime)
      : PartyBase(id),
        send_round_(send_round),
        target_(target),
        payload_(std::move(payload)),
        lifetime_(lifetime) {}

  std::vector<Message> on_round(int round, MsgView in) override {
    for (const Message& m : in) {
      received_.push_back(m);
      log_ += std::to_string(round) + ":" + std::to_string(m.from) + ";";
    }
    std::vector<Message> out;
    if (round == send_round_) out.push_back(Message{id_, target_, payload_});
    if (round >= lifetime_) finish(bytes_of(log_));
    return out;
  }

  void on_abort() override { finish_bot(); }

  std::vector<Message> received_;
  std::string log_;

 private:
  int send_round_;
  PartyId target_;
  Bytes payload_;
  int lifetime_;
};

TEST(Engine, PointToPointDeliveryNextRound) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("hi"), 3));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 3));
  auto r = run_honest(std::move(parties), Rng(1));
  // Party 1 must have received party 0's round-0 message in round 1.
  ASSERT_TRUE(r.outputs[1].has_value());
  EXPECT_EQ(*r.outputs[1], bytes_of("1:0;"));
  // Party 0 received nothing.
  EXPECT_EQ(*r.outputs[0], Bytes{});
}

TEST(Engine, BroadcastReachesEveryone) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, kBroadcast, bytes_of("b"), 3));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 3));
  parties.push_back(std::make_unique<ScriptParty>(2, 99, 0, Bytes{}, 3));
  auto r = run_honest(std::move(parties), Rng(2));
  EXPECT_EQ(*r.outputs[1], bytes_of("1:0;"));
  EXPECT_EQ(*r.outputs[2], bytes_of("1:0;"));
  // Sender receives its own broadcast too.
  EXPECT_EQ(*r.outputs[0], bytes_of("1:0;"));
}

TEST(Engine, TerminatesWhenAllHonestDone) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 99, 1, Bytes{}, 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 5));
  auto r = run_honest(std::move(parties), Rng(3));
  EXPECT_FALSE(r.hit_round_cap);
  EXPECT_EQ(r.rounds, 6);  // lifetime 5 party finishes in round 5 (6 rounds ran)
}

TEST(Engine, RoundCapFinalizesViaAbort) {
  // A party that never finishes gets on_abort()'d at the cap.
  class Forever final : public PartyBase<Forever> {
   public:
    using PartyBase::PartyBase;
    std::vector<Message> on_round(int, MsgView) override { return {}; }
    void on_abort() override { finish_bot(); }
  };
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<Forever>(0));
  ExecutionOptions cfg;
  cfg.max_rounds = 7;
  auto r = run_honest(std::move(parties), Rng(4), cfg);
  EXPECT_TRUE(r.hit_round_cap);
  EXPECT_EQ(r.rounds, 7);
  EXPECT_FALSE(r.outputs[0].has_value());
}

// Adversary that records (materialized) snapshots of its views and replays
// scripted messages. AdvView borrows the engine's round buffers, so the raw
// views must not be stored across rounds.
class ScriptAdversary final : public IAdversary {
 public:
  struct ViewSnapshot {
    int round = 0;
    std::vector<Message> delivered;
    std::vector<Message> rushed;
  };

  explicit ScriptAdversary(std::set<PartyId> corrupt) : corrupt_(std::move(corrupt)) {}

  void setup(AdvContext& ctx) override {
    for (PartyId p : corrupt_) ctx.corrupt(p);
  }

  std::vector<Message> on_round(AdvContext&, const AdvView& view) override {
    views_.push_back(
        {view.round, view.delivered.materialize(), view.rushed.materialize()});
    std::vector<Message> out = std::move(to_send_);
    to_send_.clear();
    return out;
  }

  [[nodiscard]] bool learned_output() const override { return false; }

  std::set<PartyId> corrupt_;
  std::vector<ViewSnapshot> views_;
  std::vector<Message> to_send_;
};

TEST(Engine, RushingAdversarySeesSameRoundTraffic) {
  // Party 0 honest, sends to corrupted party 1 in round 0; the adversary must
  // see it in view.rushed at round 0 and in view.delivered at round 1.
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("x"), 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 2));
  auto adv = std::make_unique<ScriptAdversary>(std::set<PartyId>{1});
  auto* adv_ptr = adv.get();
  Engine e(std::move(parties), nullptr, std::move(adv), Rng(5));
  e.run();
  ASSERT_GE(adv_ptr->views_.size(), 2u);
  ASSERT_EQ(adv_ptr->views_[0].rushed.size(), 1u);
  EXPECT_EQ(adv_ptr->views_[0].rushed[0].payload, bytes_of("x"));
  EXPECT_TRUE(adv_ptr->views_[0].delivered.empty());
  ASSERT_EQ(adv_ptr->views_[1].delivered.size(), 1u);
  EXPECT_EQ(adv_ptr->views_[1].delivered[0].payload, bytes_of("x"));
}

TEST(Engine, AdversaryCannotSeeHonestToHonestTraffic) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("private"), 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 2));
  parties.push_back(std::make_unique<ScriptParty>(2, 99, 0, Bytes{}, 2));
  auto adv = std::make_unique<ScriptAdversary>(std::set<PartyId>{2});
  auto* adv_ptr = adv.get();
  Engine e(std::move(parties), nullptr, std::move(adv), Rng(6));
  e.run();
  for (const auto& v : adv_ptr->views_) {
    EXPECT_TRUE(v.rushed.empty());
    EXPECT_TRUE(v.delivered.empty());
  }
}

TEST(Engine, AdversaryCannotForgeHonestSender) {
  // Adversary (corrupting party 1) tries to send a message as party 0.
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 99, 1, Bytes{}, 3));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 3));
  parties.push_back(std::make_unique<ScriptParty>(2, 99, 0, Bytes{}, 3));
  auto adv = std::make_unique<ScriptAdversary>(std::set<PartyId>{1});
  adv->to_send_.push_back(Message{0, 2, bytes_of("forged")});   // dropped
  adv->to_send_.push_back(Message{1, 2, bytes_of("genuine")});  // allowed
  Engine e(std::move(parties), nullptr, std::move(adv), Rng(7));
  auto r = e.run();
  ASSERT_TRUE(r.outputs[2].has_value());
  EXPECT_EQ(*r.outputs[2], bytes_of("1:1;"));  // only the genuine one arrived
}

TEST(Engine, CorruptedPartiesAreNotAutoStepped) {
  // Corrupted party 0 would send in round 0 if honest; with a do-nothing
  // adversary nothing is sent.
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("x"), 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 2));
  auto adv = std::make_unique<ScriptAdversary>(std::set<PartyId>{0});
  Engine e(std::move(parties), nullptr, std::move(adv), Rng(8));
  auto r = e.run();
  EXPECT_EQ(*r.outputs[1], Bytes{});  // never received anything
  EXPECT_EQ(r.corrupted, (std::set<PartyId>{0}));
}

// Adversary driving its corrupted party honestly via honest_step, and using
// probe_output.
class DrivingAdversary final : public IAdversary {
 public:
  void setup(AdvContext& ctx) override { ctx.corrupt(0); }

  std::vector<Message> on_round(AdvContext& ctx, const AdvView& view) override {
    probe_results_.push_back(ctx.probe_output(0, {view.delivered, view.rushed}));
    return ctx.honest_step(0, view.delivered);
  }

  [[nodiscard]] bool learned_output() const override { return false; }

  std::vector<std::optional<Bytes>> probe_results_;
};

TEST(Engine, HonestStepDrivesRealState) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("d"), 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 2));
  Engine e(std::move(parties), nullptr, std::make_unique<DrivingAdversary>(), Rng(9));
  auto r = e.run();
  // Honestly driven corrupted party behaves like an honest one.
  EXPECT_EQ(*r.outputs[1], bytes_of("1:0;"));
}

TEST(Engine, ProbeDoesNotPerturbRealExecution) {
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("d"), 2));
  parties.push_back(std::make_unique<ScriptParty>(1, 1, 0, bytes_of("r"), 2));
  auto adv = std::make_unique<DrivingAdversary>();
  auto* adv_ptr = adv.get();
  Engine e(std::move(parties), nullptr, std::move(adv), Rng(10));
  auto r = e.run();
  // Probes happened every round...
  EXPECT_GE(adv_ptr->probe_results_.size(), 2u);
  // ...but party 0 still completed normally (received party 1's reply).
  ASSERT_TRUE(r.outputs[0].has_value());
  EXPECT_EQ(*r.outputs[0], bytes_of("2:1;"));
}

TEST(Engine, AdaptiveCorruptionMidExecution) {
  class LateCorruptor final : public IAdversary {
   public:
    void setup(AdvContext&) override {}
    std::vector<Message> on_round(AdvContext& ctx, const AdvView& view) override {
      if (view.round == 1) ctx.corrupt(0);  // corrupt after round 0 ran honestly
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  std::vector<std::unique_ptr<IParty>> parties;
  // Party 0 sends in round 0 (pre-corruption: goes out) and would send again
  // in round 2 — but by then it is corrupted and silent.
  parties.push_back(std::make_unique<ScriptParty>(0, 0, 1, bytes_of("early"), 5));
  parties.push_back(std::make_unique<ScriptParty>(1, 99, 0, Bytes{}, 5));
  Engine e(std::move(parties), nullptr, std::make_unique<LateCorruptor>(), Rng(11));
  auto r = e.run();
  EXPECT_EQ(*r.outputs[1], bytes_of("1:0;"));
  EXPECT_EQ(r.corrupted, (std::set<PartyId>{0}));
}

TEST(Engine, TouchingUncorruptedPartyThrows) {
  class BadAdversary final : public IAdversary {
   public:
    void setup(AdvContext&) override {}
    std::vector<Message> on_round(AdvContext& ctx, const AdvView&) override {
      ctx.honest_step(0, {});  // party 0 is honest -> must throw
      return {};
    }
    [[nodiscard]] bool learned_output() const override { return false; }
  };
  std::vector<std::unique_ptr<IParty>> parties;
  parties.push_back(std::make_unique<ScriptParty>(0, 99, 0, Bytes{}, 2));
  Engine e(std::move(parties), nullptr, std::make_unique<BadAdversary>(), Rng(12));
  EXPECT_THROW(e.run(), std::logic_error);
}

}  // namespace
}  // namespace fairsfe::sim
