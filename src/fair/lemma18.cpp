#include "fair/lemma18.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagFlag = 50;
}  // namespace

Bytes encode_flag(std::uint8_t flag) {
  Writer w;
  w.u8(kTagFlag).u8(flag);
  return w.take();
}

std::optional<std::uint8_t> decode_flag(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagFlag) return std::nullopt;
  const auto flag = r.u8();
  if (!flag || !r.at_end()) return std::nullopt;
  return flag;
}

Lemma18Party::Lemma18Party(sim::PartyId id, std::size_t n, Bytes input, Rng rng)
    : PartyBase(id), n_(n), input_(std::move(input)), rng_(std::move(rng)) {}

std::vector<Message> Lemma18Party::on_round(int /*round*/, MsgView in) {
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitFuncOutput;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitFuncOutput: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      const auto body = sim::decode_func_output(fm->payload);
      const auto priv = body ? decode_priv_output(*body) : std::nullopt;
      if (!priv) {
        finish_bot();
        return {};
      }
      vk_ = std::make_shared<const Bytes>(priv->vk.begin(), priv->vk.end());
      if (priv->has_value && lamport_verify(*vk_, priv->y, priv->sig)) {
        my_value_ = std::make_pair(Bytes(priv->y.begin(), priv->y.end()),
                                   Bytes(priv->sig.begin(), priv->sig.end()));
      }
      // Step 2: send "0" to all other parties.
      step_ = Step::kAwaitFlags;
      std::vector<Message> out;
      for (std::size_t p = 0; p < n_; ++p) {
        if (p == static_cast<std::size_t>(id_)) continue;
        out.push_back(Message{id_, static_cast<sim::PartyId>(p), encode_flag(0)});
      }
      return out;
    }
    case Step::kAwaitFlags: {
      if (!my_value_) {
        // Not p_{i*}: flags are irrelevant; wait for a value (which a rushing
        // corrupted p_{i*} might even have sent a round early).
        for (const Message& m : in) {
          const auto ann = decode_announcement(m.payload);
          if (ann && lamport_verify(*vk_, ann->first, ann->second)) {
            finish(Bytes(ann->first.begin(), ann->first.end()));
            return {};
          }
        }
        step_ = Step::kAwaitValue;
        return {};
      }
      // Step 3: decide how to distribute the value.
      std::vector<char> sent_zero(n_, 0);
      sent_zero[static_cast<std::size_t>(id_)] = 1;  // self counts as compliant
      for (const Message& m : in) {
        if (m.from < 0 || m.from >= static_cast<sim::PartyId>(n_)) continue;
        const auto flag = decode_flag(m.payload);
        if (flag && *flag == 0) sent_zero[static_cast<std::size_t>(m.from)] = 1;
      }
      bool all_zero = true;
      for (const char z : sent_zero) {
        if (!z) all_zero = false;
      }
      std::vector<Message> out;
      if (all_zero || rng_.bit()) {
        out.push_back(Message{id_, sim::kBroadcast, encode_announcement(my_value_)});
      } else {
        // Tails: reveal only to the deviators.
        for (std::size_t p = 0; p < n_; ++p) {
          if (sent_zero[p]) continue;
          out.push_back(Message{id_, static_cast<sim::PartyId>(p),
                                encode_announcement(my_value_)});
        }
      }
      finish(my_value_->first);
      return out;
    }
    case Step::kAwaitValue: {
      for (const Message& m : in) {
        const auto ann = decode_announcement(m.payload);
        if (ann && lamport_verify(*vk_, ann->first, ann->second)) {
          finish(Bytes(ann->first.begin(), ann->first.end()));
          return {};
        }
      }
      finish_bot();
      return {};
    }
  }
  return {};
}

void Lemma18Party::on_abort() {
  if (done()) return;
  if (my_value_) {
    finish(my_value_->first);
  } else {
    finish_bot();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_lemma18_parties(
    const mpc::SfeSpec& spec, const std::vector<Bytes>& inputs, Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    parties.push_back(std::make_unique<Lemma18Party>(static_cast<sim::PartyId>(p), spec.n,
                                                     inputs[p], rng.fork("lemma18")));  // LINT-ALLOW(rng-fork-in-loop): fork counter is the party index (parent enters at 0); callers fork this parent afterwards, so re-indexing would re-seed pinned goldens
  }
  return parties;
}

}  // namespace fairsfe::fair
