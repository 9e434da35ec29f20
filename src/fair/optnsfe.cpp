#include "fair/optnsfe.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagAnnounce = 30;
}  // namespace

Bytes encode_announcement(const std::optional<std::pair<Bytes, Bytes>>& value) {
  Writer w;
  w.u8(kTagAnnounce);
  if (value) {
    w.u8(1).blob(value->first).blob(value->second);
  } else {
    w.u8(0);
  }
  return w.take();
}

std::optional<std::pair<ByteView, ByteView>> decode_announcement(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagAnnounce) return std::nullopt;
  const auto flag = r.u8();
  if (!flag || *flag == 0) return std::nullopt;
  const auto y = r.blob_view();
  const auto sig = r.blob_view();
  if (!y || !sig || !r.at_end()) return std::nullopt;
  return std::make_pair(*y, *sig);
}

std::optional<PrivOutput> decode_priv_output(ByteView body) {
  Reader r(body);
  const auto flag = r.u8();
  if (!flag) return std::nullopt;
  PrivOutput out;
  out.has_value = (*flag != 0);
  if (out.has_value) {
    const auto y = r.blob_view();
    const auto sig = r.blob_view();
    if (!y || !sig) return std::nullopt;
    out.y = *y;
    out.sig = *sig;
  }
  const auto vk = r.blob_view();
  if (!vk || !r.at_end()) return std::nullopt;
  out.vk = *vk;
  return out;
}

PrivOutputFunc::PrivOutputFunc(mpc::SfeSpec spec, mpc::NotesPtr notes)
    : spec_(std::move(spec)), notes_(std::move(notes)) {}

std::vector<Message> PrivOutputFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                              MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;
  return mpc::deal_through_gate(ctx, in, spec_.n, notes_, [&](const std::vector<Bytes>& xs) {
    const Bytes y = spec_.eval(xs);
    const LamportKeyPair kp = lamport_gen(ctx.rng());
    const Bytes sig = lamport_sign(kp.signing_key, y);
    const std::size_t i_star = ctx.rng().below(spec_.n);
    if (notes_) {
      notes_->blobs["y"] = y;
      notes_->vals["i_star"] = i_star;
    }

    const ByteView vk = kp.verification_key;
    std::vector<Bytes> payloads;
    payloads.reserve(spec_.n);
    for (std::size_t p = 0; p < spec_.n; ++p) {
      // Hand-rolled writer for the body decode_priv_output() parses.
      // ANALYZE-EMITS(priv_output)
      const bool holder = p == i_star;
      sim::FuncOutputWriter f(1 + (holder ? 8 + y.size() + sig.size() : 0) + 4 + vk.size());
      Writer& w = f.body();
      if (holder) {
        w.u8(1).blob(y).blob(sig);
      } else {
        w.u8(0);
      }
      w.blob(vk);
      payloads.push_back(f.take());
    }
    return payloads;
  });
}

OptNParty::OptNParty(sim::PartyId id, Bytes input) : PartyBase(id), input_(std::move(input)) {}

std::vector<Message> OptNParty::on_round(int /*round*/, MsgView in) {
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
        // Phase-1 abort: the whole protocol aborts (paper, App. B).
        finish_bot();
        return {};
      }
      vk_ = std::make_shared<const Bytes>(priv->vk.begin(), priv->vk.end());
      if (priv->has_value && lamport_verify(*vk_, priv->y, priv->sig)) {
        my_value_ = std::make_pair(Bytes(priv->y.begin(), priv->y.end()),
                                   Bytes(priv->sig.begin(), priv->sig.end()));
      }
      step_ = Step::kAwaitBroadcasts;
      return {Message{id_, sim::kBroadcast, encode_announcement(my_value_)}};
    }
    case Step::kAwaitBroadcasts: {
      if (my_value_) {
        // p_{i*} broadcast a validly signed value itself and can adopt it
        // regardless of what anyone else announced.
        finish(my_value_->first);
        return {};
      }
      for (const Message& m : in) {
        const auto ann = decode_announcement(m.payload);
        if (ann && lamport_verify(*vk_, ann->first, ann->second)) {
          finish(Bytes(ann->first.begin(), ann->first.end()));
          return {};
        }
      }
      finish_bot();  // nobody announced a validly signed value
      return {};
    }
  }
  return {};
}

void OptNParty::on_abort() {
  if (done()) return;
  if (my_value_) {
    // p_{i*} can always adopt its own value.
    finish(my_value_->first);
  } else {
    finish_bot();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_optn_parties(const std::vector<Bytes>& inputs,
                                                            Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    (void)rng.fork("optn-party");  // LINT-ALLOW(rng-fork-in-loop): a party keeps no stream, but callers fork this parent afterwards, so its fork counter must still advance once per party or pinned goldens re-seed
    parties.push_back(std::make_unique<OptNParty>(static_cast<sim::PartyId>(p), inputs[p]));
  }
  return parties;
}

}  // namespace fairsfe::fair
