#include "fair/penalty.h"

#include "util/check.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

PenaltyParams make_penalty_params(mpc::SfeSpec spec) {
  PenaltyParams params;
  params.spec = std::move(spec);
  return params;
}

EscrowFunc::EscrowFunc(PenaltyParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {
  FAIRSFE_CHECK(params_.patience >= 1, "EscrowFunc: patience must be >= 1");
  FAIRSFE_CHECK(params_.claim_deadline >= 1, "EscrowFunc: claim_deadline must be >= 1");
}

std::vector<Message> EscrowFunc::on_round(sim::FuncContext& ctx, int round, MsgView in) {
  std::vector<Message> out;
  switch (state_) {
    case State::kAwaitInputs: {
      for (const Message& m : in) {
        if (m.from != 0 && m.from != 1) continue;
        const auto x = sim::decode_func_input(m.payload);
        if (x && !inputs_[static_cast<std::size_t>(m.from)]) {
          inputs_[static_cast<std::size_t>(m.from)] = *x;
        }
      }
      if (!inputs_[0] || !inputs_[1]) {
        if (round >= params_.patience) {
          // A no-show within patience: nothing was computed, deposits are
          // returned, everyone aborts — a money-neutral failure.
          if (notes_) notes_->vals["phase1_aborted"] = 1;
          state_ = State::kDone;
          out.push_back(Message{sim::kFunc, 0, sim::encode_func_abort()});
          out.push_back(Message{sim::kFunc, 1, sim::encode_func_abort()});
        }
        return out;
      }
      // Both inputs (and hence both deposits) are in: compute y and deliver
      // it to p1 first, starting the claim deadline.
      y_ = params_.spec.eval({*inputs_[0], *inputs_[1]});
      if (notes_) {
        notes_->vals["deposit_posted"] = 1;
        notes_->blobs["y"] = y_;
      }
      std::vector<Message> deliveries = {
          Message{sim::kFunc, 0, sim::encode_func_output(y_)}};
      std::vector<Message> corrupted_outputs;
      for (const Message& m : deliveries) {
        if (ctx.corrupted().count(m.to)) corrupted_outputs.push_back(m);
      }
      if (ctx.adversary_abort_gate(corrupted_outputs)) {
        // The adversary saw y at the gate and aborted the escrow anyway:
        // that IS a withhold-after-learning, and the deposit is forfeit.
        if (notes_) notes_->vals["withheld_after_learning"] = 1;
        state_ = State::kDone;
        out.push_back(Message{sim::kFunc, 0, sim::encode_func_abort()});
        out.push_back(Message{sim::kFunc, 1, sim::encode_func_abort()});
        return out;
      }
      deliver_round_ = round;
      state_ = State::kAwaitAck;
      for (Message& m : deliveries) out.push_back(std::move(m));
      return out;
    }
    case State::kAwaitAck: {
      bool acked = false;
      for (const Message& m : in) {
        if (m.from == 0) acked = true;
      }
      if (acked) {
        // Clean run: release y to p2 and refund the deposits.
        if (notes_) notes_->vals["refunded"] = 1;
        state_ = State::kDone;
        out.push_back(Message{sim::kFunc, 1, sim::encode_func_output(y_)});
        return out;
      }
      if (round >= deliver_round_ + params_.claim_deadline) {
        // p1 has y and sat on it past the deadline: forfeiture. p2 gets a
        // compensation notice — monetarily whole, but no protocol output.
        if (notes_) notes_->vals["withheld_after_learning"] = 1;
        state_ = State::kDone;
        out.push_back(Message{sim::kFunc, 1, sim::encode_func_abort()});
      }
      return out;
    }
    case State::kDone:
      return out;
  }
  return out;
}

PenaltyParty::PenaltyParty(sim::PartyId id, Bytes input)
    : PartyBase(id), input_(std::move(input)) {
  FAIRSFE_CHECK(id == 0 || id == 1, "PenaltyParty: protocol is 2-party");
}

std::vector<Message> PenaltyParty::on_round(int /*round*/, MsgView in) {
  if (!sent_input_) {
    sent_input_ = true;
    return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
  }
  const Message* fm = first_from(in, sim::kFunc);
  if (fm == nullptr) return {};
  const auto y = sim::decode_func_output(fm->payload);
  if (!y) {
    // Abort / compensation notice: no protocol output (the monetary side is
    // the payoff model's business, not the party's).
    finish_bot();
    return {};
  }
  finish(Bytes(y->begin(), y->end()));
  if (id_ == 0) {
    // Acknowledge receipt so the escrow releases y to the peer.
    return {Message{id_, sim::kFunc, sim::encode_func_input(Bytes{1})}};
  }
  return {};
}

void PenaltyParty::on_abort() {
  if (done()) return;
  finish_bot();
}

std::vector<std::unique_ptr<sim::IParty>> make_penalty_parties(const Bytes& x0,
                                                               const Bytes& x1) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<PenaltyParty>(0, x0));
  parties.push_back(std::make_unique<PenaltyParty>(1, x1));
  return parties;
}

}  // namespace fairsfe::fair
