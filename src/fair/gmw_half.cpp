#include "fair/gmw_half.h"

#include "crypto/sha256.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagShare = 40;
}  // namespace

Bytes half_gmw_share_hash(ByteView nonce, const ShamirShare& share) {
  Writer w;
  w.blob(nonce).blob(share.to_bytes());
  return sha256_labeled("half-gmw-share", w.bytes());
}

Bytes encode_share_broadcast(const ShamirShare& share, ByteView nonce) {
  Writer w;
  w.u8(kTagShare).blob(share.to_bytes()).blob(nonce);
  return w.take();
}

std::optional<std::pair<ShamirShare, Bytes>> decode_share_broadcast(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagShare) return std::nullopt;
  const auto share_bytes = r.blob();
  const auto nonce = r.blob();
  if (!share_bytes || !nonce || !r.at_end()) return std::nullopt;
  const auto share = ShamirShare::from_bytes(*share_bytes);
  if (!share) return std::nullopt;
  return std::make_pair(*share, *nonce);
}

ShamirDealFunc::ShamirDealFunc(mpc::SfeSpec spec, mpc::NotesPtr notes)
    : spec_(std::move(spec)), notes_(std::move(notes)) {}

std::vector<Message> ShamirDealFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                              MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;
  return mpc::deal_through_gate(ctx, in, spec_.n, notes_, [&](const std::vector<Bytes>& xs) {
    const Bytes y = spec_.eval(xs);
    if (notes_) notes_->blobs["y"] = y;

    const std::size_t threshold = half_gmw_threshold(spec_.n);
    const auto shares = shamir_share_bytes(y, threshold, spec_.n, ctx.rng());
    std::vector<Bytes> nonces(spec_.n);
    std::vector<Bytes> hashes(spec_.n);
    for (std::size_t p = 0; p < spec_.n; ++p) {
      nonces[p] = ctx.rng().bytes(16);
      hashes[p] = half_gmw_share_hash(nonces[p], shares[p]);
    }

    std::vector<Bytes> payloads;
    payloads.reserve(spec_.n);
    for (std::size_t p = 0; p < spec_.n; ++p) {
      sim::FuncOutputWriter f;
      Writer& w = f.body();
      w.blob(shares[p].to_bytes()).blob(nonces[p]);
      w.u32(static_cast<std::uint32_t>(spec_.n));
      for (const Bytes& h : hashes) w.blob(h);
      payloads.push_back(f.take());
    }
    return payloads;
  });
}

HalfGmwParty::HalfGmwParty(sim::PartyId id, mpc::SfeSpec spec, Bytes input, Rng rng)
    : PartyBase(id), spec_(std::move(spec)), input_(std::move(input)), rng_(std::move(rng)) {}

std::vector<Message> HalfGmwParty::on_round(int /*round*/, MsgView in) {
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShare;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShare: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      const auto body = sim::decode_func_output(fm->payload);
      if (!body) {
        finish_bot();
        return {};
      }
      Reader r(*body);
      const auto share_bytes = r.blob();
      const auto nonce = r.blob();
      const auto count = r.u32();
      if (!share_bytes || !nonce || !count || *count != spec_.n) {
        finish_bot();
        return {};
      }
      const auto share = ShamirShare::from_bytes(*share_bytes);
      if (!share) {
        finish_bot();
        return {};
      }
      my_share_ = *share;
      my_nonce_ = *nonce;
      share_hashes_.clear();
      for (std::size_t p = 0; p < spec_.n; ++p) {
        const auto h = r.blob();
        if (!h) {
          finish_bot();
          return {};
        }
        share_hashes_.push_back(*h);
      }
      step_ = Step::kAwaitBroadcasts;
      return {Message{id_, sim::kBroadcast, encode_share_broadcast(my_share_, my_nonce_)}};
    }
    case Step::kAwaitBroadcasts: {
      std::vector<ShamirShare> valid;
      valid.push_back(my_share_);
      for (const Message& m : in) {
        if (m.from < 0 || m.from >= static_cast<sim::PartyId>(spec_.n)) continue;
        if (m.from == id_) continue;
        const auto sb = decode_share_broadcast(m.payload);
        if (!sb) continue;
        const std::size_t p = static_cast<std::size_t>(m.from);
        // A share is valid only if it matches the dealer's commitment for
        // that party (binding: wrong shares are rejected, as with VSS).
        if (sb->first.x != p + 1) continue;
        if (half_gmw_share_hash(sb->second, sb->first) != share_hashes_[p]) continue;
        valid.push_back(sb->first);
      }
      const auto y = shamir_reconstruct_bytes(valid, half_gmw_threshold(spec_.n));
      if (y) {
        finish(*y);
      } else {
        finish_bot();
      }
      return {};
    }
  }
  return {};
}

void HalfGmwParty::on_abort() {
  // A single party's share never suffices on its own (threshold > 1).
  if (!done()) finish_bot();
}

std::vector<std::unique_ptr<sim::IParty>> make_half_gmw_parties(
    const mpc::SfeSpec& spec, const std::vector<Bytes>& inputs, Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    parties.push_back(std::make_unique<HalfGmwParty>(static_cast<sim::PartyId>(p), spec,
                                                     inputs[p], rng.fork("half-gmw")));  // LINT-ALLOW(rng-fork-in-loop): fork counter is the party index (parent enters at 0); callers fork this parent afterwards, so re-indexing would re-seed pinned goldens
  }
  return parties;
}

}  // namespace fairsfe::fair
