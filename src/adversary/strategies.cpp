#include "adversary/strategies.h"

#include "fair/gmw_half.h"
#include "fair/leaky_and.h"
#include "fair/lemma18.h"
#include "fair/optnsfe.h"

namespace fairsfe::adversary {

using sim::Message;

PassiveObserver::PassiveObserver(std::set<sim::PartyId> corrupt, Bytes actual_output)
    : AdversaryBase(std::move(corrupt)), actual_(std::move(actual_output)) {}

std::vector<Message> PassiveObserver::on_round(sim::AdvContext& ctx,
                                               const sim::AdvView& view) {
  std::vector<Message> out = honest_step_all(ctx, view.delivered);
  if (out.empty() && view.delivered.empty()) {
    ++rounds_idle_;
  } else {
    rounds_idle_ = 0;
  }
  if (!learned_) {
    // Did any corrupted party (honestly driven) end with the actual output?
    for (const sim::PartyId pid : ctx.corrupted()) {
      const sim::IParty& p = ctx.party(pid);
      if (p.done() && p.output() && *p.output() == actual_) {
        mark_learned(actual_);
        break;
      }
    }
  }
  return out;
}

AbortFunctionality::AbortFunctionality(std::set<sim::PartyId> corrupt)
    : AdversaryBase(std::move(corrupt)) {}

std::vector<Message> AbortFunctionality::on_round(sim::AdvContext& ctx,
                                                  const sim::AdvView& view) {
  // Provide inputs honestly so the functionality fires, then never speak
  // again (the gate abort does the damage).
  if (view.round == 0) return honest_step_all(ctx, view.delivered);
  return {};
}

HalfGmwCoalition::HalfGmwCoalition(std::set<sim::PartyId> corrupt, std::size_t n)
    : AdversaryBase(std::move(corrupt)), n_(n) {}

std::vector<Message> HalfGmwCoalition::on_round(sim::AdvContext& ctx,
                                                const sim::AdvView& view) {
  if (aborted_) return {};
  std::vector<Message> out = honest_step_all(ctx, view.delivered);

  // The broadcast round: the corrupted parties are about to announce their
  // shares and the honest ones already did (rushed traffic).
  std::vector<ShamirShare> pool;
  bool at_broadcast = false;
  auto absorb = [&](sim::MsgView msgs) {
    for (const Message& m : msgs) {
      const auto sb = fair::decode_share_broadcast(m.payload);
      if (!sb) continue;
      at_broadcast = true;
      pool.push_back(sb->first);
    }
  };
  absorb(out);
  absorb(view.rushed);

  if (at_broadcast) {
    const auto y = shamir_reconstruct_bytes(pool, fair::half_gmw_threshold(n_));
    if (y) mark_learned(*y);
    // Withhold the coalition's shares: honest parties keep only their own.
    aborted_ = true;
    return {};
  }
  return out;
}

void LeakyAndProbe::setup(sim::AdvContext& ctx) { ctx.corrupt(1); }

std::vector<Message> LeakyAndProbe::on_round(sim::AdvContext& ctx,
                                             const sim::AdvView& view) {
  if (view.round == 0) {
    std::vector<Message> out = ctx.honest_step(1, {});
    for (Message& m : out) {
      if (fair::decode_preamble(m.payload)) m.payload = fair::encode_preamble(1);
    }
    return out;
  }
  for (const sim::MsgView* batch : {&view.delivered, &view.rushed}) {
    for (const Message& m : *batch) {
      const auto leak = fair::decode_leak(m.payload);
      if (leak && *leak) leaked_ = **leak;
    }
  }
  return ctx.honest_step(1, addressed_to(view.delivered, 1));
}

Lemma18Deviator::Lemma18Deviator(sim::PartyId corrupt)
    : AdversaryBase({corrupt}), pid_(corrupt) {}

bool Lemma18Deviator::abort_functionality(sim::AdvContext&,
                                          const std::vector<Message>& outs) {
  for (const Message& m : outs) {
    if (m.to != pid_) continue;
    const auto body = sim::decode_func_output(m.payload);
    const auto priv = body ? fair::decode_priv_output(*body) : std::nullopt;
    if (priv && priv->has_value) {
      // Lucky draw: we are p_{i*}. Take y and kill the delivery to everyone
      // else.
      mark_learned(Bytes(priv->y.begin(), priv->y.end()));
      aborted_ = true;
      return true;
    }
  }
  return false;
}

std::vector<Message> Lemma18Deviator::on_round(sim::AdvContext& ctx,
                                               const sim::AdvView& view) {
  if (aborted_) return {};
  std::vector<Message> out = honest_step_all(ctx, view.delivered);
  // Step-2 deviation: turn our "0" flags into "1"s.
  for (Message& m : out) {
    if (fair::decode_flag(m.payload)) m.payload = fair::encode_flag(1);
  }
  // Watch for the value (broadcast or the tails-branch direct send).
  if (!learned_) {
    for (const sim::MsgView* msgs : {&view.delivered, &view.rushed}) {
      for (const Message& m : *msgs) {
        const auto ann = fair::decode_announcement(m.payload);
        if (ann) mark_learned(Bytes(ann->first.begin(), ann->first.end()));
      }
    }
  }
  return out;
}

}  // namespace fairsfe::adversary
