#include "fair/opt2sfe.h"

#include <array>

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagOpening = 20;

Bytes enc_opening(const AuthShare2& share) {
  Writer w;
  w.u8(kTagOpening).blob(share.opening_to_bytes());
  return w.take();
}

std::optional<Bytes> find_opening(MsgView in, sim::PartyId from) {
  for (const Message& m : in) {
    if (m.from != from) continue;
    Reader r(m.payload);
    const auto t = r.u8();
    if (!t || *t != kTagOpening) continue;
    const auto body = r.blob();
    if (body && r.at_end()) return body;
  }
  return std::nullopt;
}
}  // namespace

Opt2ShareFunc::Opt2ShareFunc(mpc::SfeSpec spec, mpc::NotesPtr notes, int patience)
    : spec_(std::move(spec)), notes_(std::move(notes)), patience_(patience) {}

std::vector<Message> Opt2ShareFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                             MsgView in) {
  if (fired_) return {};
  // Inputs accumulate across rounds so that a late (delayed / post-restart)
  // sender can still contribute within the patience window.
  for (const Message& m : in) {
    if (m.from != 0 && m.from != 1) continue;
    const auto x = sim::decode_func_input(m.payload);
    if (x && !inputs_[static_cast<std::size_t>(m.from)]) {
      inputs_[static_cast<std::size_t>(m.from)] = *x;
    }
  }
  seen_traffic_ = seen_traffic_ || !in.empty();
  if (!seen_traffic_) return {};
  if ((!inputs_[0] || !inputs_[1]) && waited_ < patience_) {
    ++waited_;
    return {};
  }
  fired_ = true;

  const std::array<std::optional<Bytes>, 2>& inputs = inputs_;

  std::vector<Message> out;
  if (!inputs[0] || !inputs[1]) {
    if (notes_) notes_->vals["phase1_aborted"] = 1;
    out.push_back(Message{sim::kFunc, 0, sim::encode_func_abort()});
    out.push_back(Message{sim::kFunc, 1, sim::encode_func_abort()});
    return out;
  }

  const Bytes y = spec_.eval({*inputs[0], *inputs[1]});
  // Party i's output: blob(⟨y⟩ᵢ) ‖ u8 î.
  std::array<sim::FuncOutputWriter, 2> w;
  deal_auth_share2(y, ctx.rng(), w[0].body(), w[1].body());
  const auto i_hat = static_cast<sim::PartyId>(ctx.rng().below(2));
  if (notes_) {
    notes_->blobs["y"] = y;
    notes_->vals["i_hat"] = static_cast<std::uint64_t>(i_hat);
  }
  for (sim::FuncOutputWriter& wi : w) wi.body().u8(static_cast<std::uint8_t>(i_hat));
  std::vector<Message> deliveries;
  deliveries.push_back(Message{sim::kFunc, 0, w[0].take()});
  deliveries.push_back(Message{sim::kFunc, 1, w[1].take()});

  std::vector<Message> corrupted_outputs;
  for (const Message& m : deliveries) {
    if (ctx.corrupted().count(m.to)) corrupted_outputs.push_back(m);
  }
  const bool abort = ctx.adversary_abort_gate(corrupted_outputs);
  if (notes_) notes_->vals["phase1_aborted"] = abort ? 1 : 0;
  for (Message& m : deliveries) {
    if (abort && !ctx.corrupted().count(m.to)) m.payload = sim::encode_func_abort();
    out.push_back(std::move(m));
  }
  return out;
}

Opt2Party::Opt2Party(sim::PartyId id, mpc::SfeSpec spec, Bytes input, Rng rng)
    : PartyBase(id), spec_(std::move(spec)), input_(std::move(input)), rng_(std::move(rng)) {}

void Opt2Party::finish_with_default() {
  std::vector<Bytes> xs = spec_.default_inputs;
  xs[static_cast<std::size_t>(id_)] = input_;
  finish(spec_.eval(xs));
}

std::vector<Message> Opt2Party::on_round(int /*round*/, MsgView in) {
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShare;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShare: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};  // functionality still working
      const auto body = sim::decode_func_output(fm->payload);
      if (!body) {
        // Phase 1 aborted: default-input local evaluation.
        finish_with_default();
        return {};
      }
      Reader r(*body);
      const auto share_bytes = r.blob();
      const auto idx = r.u8();
      const auto share = share_bytes ? AuthShare2::from_bytes(*share_bytes) : std::nullopt;
      if (!share || !idx || *idx > 1 || !r.at_end()) {
        finish_with_default();
        return {};
      }
      share_ = *share;
      i_hat_ = static_cast<sim::PartyId>(*idx);
      if (i_hat_ == id_) {
        // Reconstruction comes to me first; the peer opens next round.
        step_ = Step::kAwaitOpening;
        return {};
      }
      // I open towards p_î now and expect the closing opening in two rounds.
      step_ = Step::kIdleOneRound;
      return {Message{id_, peer(), enc_opening(share_)}};
    }
    case Step::kAwaitOpening: {
      const auto body = find_opening(in, peer());
      const auto y = body ? auth_reconstruct2(share_, *body) : std::nullopt;
      if (!y) {
        // First reconstruction round failed: default-input local evaluation.
        finish_with_default();
        return {};
      }
      finish(*y);
      return {Message{id_, peer(), enc_opening(share_)}};
    }
    case Step::kIdleOneRound: {
      // The closing opening may arrive early if the peer rushes; accept it.
      const auto body = find_opening(in, peer());
      if (body) {
        const auto y = auth_reconstruct2(share_, *body);
        if (y) {
          finish(*y);
        } else {
          finish_bot();
        }
        return {};
      }
      step_ = Step::kAwaitFinal;
      return {};
    }
    case Step::kAwaitFinal: {
      const auto body = find_opening(in, peer());
      const auto y = body ? auth_reconstruct2(share_, *body) : std::nullopt;
      if (!y) {
        // Second reconstruction round failed: the unfair abort. Output ⊥.
        finish_bot();
        return {};
      }
      finish(*y);
      return {};
    }
  }
  return {};
}

void Opt2Party::on_abort() {
  if (done()) return;
  switch (step_) {
    case Step::kSendInput:
    case Step::kAwaitShare:
    case Step::kAwaitOpening:
      // Phase 1 (or the first reconstruction round) failed.
      finish_with_default();
      return;
    case Step::kIdleOneRound:
    case Step::kAwaitFinal:
      finish_bot();
      return;
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_opt2_parties(const mpc::SfeSpec& spec,
                                                            const Bytes& x0, const Bytes& x1,
                                                            Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<Opt2Party>(0, spec, x0, rng.fork("opt2-p0")));
  parties.push_back(std::make_unique<Opt2Party>(1, spec, x1, rng.fork("opt2-p1")));
  return parties;
}

}  // namespace fairsfe::fair
