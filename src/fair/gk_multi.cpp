#include "fair/gk_multi.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "crypto/secret_sharing.h"
#include "crypto/sha256.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagMultiShare = 65;
constexpr std::size_t kNonceSize = 16;
constexpr std::size_t kHashSize = 32;
/// Share-hash inputs (44 bytes of framing, nonce and label plus the summand)
/// held on the stack.
constexpr std::size_t kInlineScratch = 128;

// Validate a ShareGen payload for an n-party run. Record 0 is the fallback
// blob; record j (1..r, r >= 1) is the summand, nonce and n commitment blobs.
std::optional<DealtBody> receive_multi_body(ByteView payload, std::size_t n) {
  const auto body = sim::decode_func_output(payload);
  if (!body || body->size() > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  Reader r(*body);
  const auto rounds = r.u32();
  if (!rounds || *rounds == 0) return std::nullopt;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(std::min(std::size_t{*rounds} + 1, r.remaining() / 4));
  for (std::size_t j = 0; j <= *rounds; ++j) {
    offsets.push_back(static_cast<std::uint32_t>(body->size() - r.remaining()));
    for (std::size_t k = 0; k < (j == 0 ? 1 : n + 2); ++k) {
      if (!r.blob_view()) return std::nullopt;
    }
  }
  return DealtBody(Bytes(body->begin(), body->end()), std::move(offsets));
}
}  // namespace

GkMultiParams make_gk_multi_and_params(std::size_t n, std::size_t p) {
  GkMultiParams params;
  params.spec.n = n;
  params.spec.eval = [](const std::vector<Bytes>& xs) {
    std::uint8_t acc = 1;
    for (const Bytes& x : xs) {
      acc = static_cast<std::uint8_t>(acc & (x.empty() ? 0 : (x[0] & 1)));
    }
    return Bytes{acc};
  };
  params.spec.default_inputs.assign(n, Bytes{0});
  params.p = p;
  params.sample_inputs = [n](Rng& rng) {
    std::vector<Bytes> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(Bytes{static_cast<std::uint8_t>(rng.bit())});
    return xs;
  };
  params.domain_size = 2;
  return params;
}

Bytes encode_gk_multi_share(std::size_t j, ByteView summand, ByteView nonce) {
  Writer w;
  w.u8(kTagMultiShare).u32(static_cast<std::uint32_t>(j)).blob(summand).blob(nonce);
  return w.take();
}

std::optional<GkMultiShare> decode_gk_multi_share(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagMultiShare) return std::nullopt;
  const auto j = r.u32();
  const auto summand = r.blob_view();
  const auto nonce = r.blob_view();
  if (!j || !summand || !nonce || !r.at_end()) return std::nullopt;
  return GkMultiShare{static_cast<std::size_t>(*j), *summand, *nonce};
}

namespace {
/// sha256_labeled's input for a share hash:
/// str("gk-multi") ‖ u64 j ‖ blob(nonce) ‖ blob(summand).
ScratchBytes<kInlineScratch> share_hash_input(std::size_t j, ByteView nonce,
                                              ByteView summand) {
  static constexpr char kLabel[] = "gk-multi";
  constexpr std::size_t kLabelSize = sizeof(kLabel) - 1;
  ScratchBytes<kInlineScratch> in(4 + kLabelSize + 8 + 4 + nonce.size() + 4 + summand.size());
  std::uint8_t* p = in.data();
  write_le32(p, kLabelSize);
  std::memcpy(p + 4, kLabel, kLabelSize);
  p += 4 + kLabelSize;
  write_le64(p, j);
  write_le32(p + 8, static_cast<std::uint32_t>(nonce.size()));
  p += 12;
  if (!nonce.empty()) std::memcpy(p, nonce.data(), nonce.size());
  p += nonce.size();
  write_le32(p, static_cast<std::uint32_t>(summand.size()));
  if (!summand.empty()) std::memcpy(p + 4, summand.data(), summand.size());
  return in;
}
}  // namespace

void gk_multi_share_hash(std::size_t j, ByteView nonce, ByteView summand, std::uint8_t* out) {
  auto input = share_hash_input(j, nonce, summand);
  sha256(input.span(), out);
}

MultiShareGenFunc::MultiShareGenFunc(GkMultiParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {}

std::vector<Message> MultiShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                                 MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;

  const std::size_t n = params_.spec.n;
  return mpc::deal_through_gate(ctx, in, n, notes_, [&](const std::vector<Bytes>& xs) {
    Rng& rng = ctx.rng();
    const Bytes y = params_.spec.eval(xs);

    const std::size_t cap = params_.cap();
    const double alpha = params_.alpha();
    std::size_t i_star = 1;
    while (i_star < cap && rng.uniform() >= alpha) ++i_star;
    if (notes_) {
      notes_->blobs["y"] = y;
      notes_->vals["i_star"] = i_star;
    }

    auto fake = [&]() { return params_.spec.eval(params_.sample_inputs(rng)); };

    // Per-party bodies, sized for values as long as y. Party p's round-j
    // record is blob(summand_p) ‖ blob(nonce_p) ‖ blob(hash_0) … blob(hash_{n-1}).
    const std::size_t hashes_size = n * (4 + kHashSize);
    const std::size_t round_size = 4 + y.size() + 4 + kNonceSize + hashes_size;
    std::vector<sim::FuncOutputWriter> frames;
    frames.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
      frames.emplace_back(8 + y.size() + cap * round_size);
      frames[p].body().u32(static_cast<std::uint32_t>(cap));
      frames[p].body().blob(fake());  // independent v_0 fallback per party
    }
    std::vector<std::uint8_t*> recs(n);
    std::vector<std::span<std::uint8_t>> summands(n);
    for (std::size_t j = 1; j <= cap; ++j) {
      const Bytes fake_v = (j < i_star) ? fake() : Bytes();
      const ByteView v = (j < i_star) ? ByteView(fake_v) : ByteView(y);
      const std::size_t m = v.size();
      for (std::size_t p = 0; p < n; ++p) {
        recs[p] = frames[p].body().extend(4 + m + 4 + kNonceSize + hashes_size).data();
        write_le32(recs[p], static_cast<std::uint32_t>(m));
        summands[p] = {recs[p] + 4, m};
      }
      xor_share(v, summands, rng);
      for (std::size_t p = 0; p < n; ++p) {
        std::uint8_t* nonce = recs[p] + 4 + m;
        write_le32(nonce, kNonceSize);
        rng.fill({nonce + 4, kNonceSize});
      }
    }
    std::vector<Bytes> payloads;
    payloads.reserve(n);
    for (sim::FuncOutputWriter& f : frames) payloads.push_back(f.take());
    std::vector<std::uint8_t*> bodies(n);
    for (std::size_t p = 0; p < n; ++p) {
      bodies[p] = payloads[p].data() + sim::FuncOutputWriter::kHeader;
    }

    // The share hashes draw no randomness, so they run after the draws, 16
    // at a time: every party's round-j hash goes into party 0's record, and
    // is then copied to the others. Round j's record sits at the same offset
    // past the fallback blob in every body.
    std::vector<std::size_t> first(n);
    for (std::size_t p = 0; p < n; ++p) first[p] = 8 + read_le32(bodies[p] + 4);
    Sha256Batch batch;
    for (std::size_t j = 1, at = 0; j <= cap; ++j) {
      const std::size_t m = read_le32(bodies[0] + first[0] + at);
      std::uint8_t* hashes = bodies[0] + first[0] + at + 4 + m + 4 + kNonceSize;
      for (std::size_t p = 0; p < n; ++p) {
        const std::uint8_t* rec = bodies[p] + first[p] + at;
        std::uint8_t* h = hashes + p * (4 + kHashSize);
        write_le32(h, kHashSize);
        auto input = share_hash_input(j, {rec + 4 + m + 4, kNonceSize}, {rec + 4, m});
        batch.add(input.span(), h + 4);
      }
      at += 4 + m + 4 + kNonceSize + hashes_size;
    }
    batch.flush();
    for (std::size_t j = 1, at = 0; j <= cap; ++j) {
      const std::size_t m = read_le32(bodies[0] + first[0] + at);
      const std::size_t hashes_at = at + 4 + m + 4 + kNonceSize;
      for (std::size_t p = 1; p < n; ++p) {
        std::memcpy(bodies[p] + first[p] + hashes_at, bodies[0] + first[0] + hashes_at,
                    hashes_size);
      }
      at = hashes_at + hashes_size;
    }
    return payloads;
  });
}

GkMultiParty::GkMultiParty(sim::PartyId id, std::shared_ptr<const GkMultiParams> params,
                           Bytes input)
    : PartyBase(id), params_(std::move(params)), input_(std::move(input)) {}

void GkMultiParty::finish_with_default() {
  std::vector<Bytes> xs = params_->spec.default_inputs;
  xs[static_cast<std::size_t>(id_)] = input_;
  finish(params_->spec.eval(xs));
}

ByteView GkMultiParty::field(std::size_t j, std::size_t k) const {
  Reader r = body_.at(j);
  for (std::size_t i = 0; i < k; ++i) (void)r.blob_view();
  return *r.blob_view();  // validated at receipt
}

Message GkMultiParty::broadcast_share(std::size_t j) const {
  return Message{id_, sim::kBroadcast, encode_gk_multi_share(j, field(j, 0), field(j, 1))};
}

std::vector<Message> GkMultiParty::on_round(int /*round*/, MsgView in) {
  const std::size_t n = params_->spec.n;
  switch (step_) {
    case Step::kSendInput: {
      step_ = Step::kAwaitShares;
      return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
    }
    case Step::kAwaitShares: {
      const Message* fm = first_from(in, sim::kFunc);
      if (fm == nullptr) return {};
      auto body = receive_multi_body(fm->payload, n);
      if (!body) {
        finish_with_default();
        return {};
      }
      body_ = std::move(*body);
      const ByteView fallback = field(0, 0);
      last_value_.assign(fallback.begin(), fallback.end());
      step_ = Step::kIterate;
      j_ = 1;
      return {broadcast_share(1)};
    }
    case Step::kIterate: {
      // Collect everyone's round-j_ summands (my own broadcast loops back).
      Reader r = body_.at(j_);
      (void)r.blob_view();  // my summand
      (void)r.blob_view();  // its nonce
      std::vector<ByteView> commitments(n);
      for (ByteView& c : commitments) c = *r.blob_view();  // validated at receipt
      std::vector<std::optional<ByteView>> verified(n);
      for (const Message& m : in) {
        if (m.from < 0 || m.from >= static_cast<sim::PartyId>(n)) continue;
        const auto sh = decode_gk_multi_share(m.payload);
        if (!sh || sh->j != j_) continue;
        const std::size_t p = static_cast<std::size_t>(m.from);
        std::uint8_t h[kHashSize] = {};
        gk_multi_share_hash(j_, sh->nonce, sh->summand, h);
        if (!std::ranges::equal(ByteView(h), commitments[p])) continue;
        if (!verified[p]) verified[p] = sh->summand;
      }
      std::vector<ByteView> pool;
      pool.reserve(n);
      for (const auto& s : verified) {
        if (s) pool.push_back(*s);
      }
      if (pool.size() != n) {
        // Someone withheld or forged: end with the last reconstructed value.
        finish(last_value_);
        return {};
      }
      last_value_ = xor_reconstruct(pool);
      if (j_ + 1 == body_.records()) {
        finish(last_value_);
        return {};
      }
      ++j_;
      return {broadcast_share(j_)};
    }
  }
  return {};
}

void GkMultiParty::on_abort() {
  if (done()) return;
  if (step_ == Step::kIterate) {
    finish(last_value_);
  } else {
    finish_with_default();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_gk_multi_parties(
    const GkMultiParams& params, const std::vector<Bytes>& inputs, Rng& rng) {
  const auto shared = std::make_shared<const GkMultiParams>(params);
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    // No party randomness; the fork keeps `rng`'s fork counter where callers expect it.
    rng.fork("gk-multi");  // LINT-ALLOW(rng-fork-in-loop): fork counter is the party index (parent enters at 0); callers fork this parent afterwards, so re-indexing would re-seed pinned goldens
    parties.push_back(std::make_unique<GkMultiParty>(static_cast<sim::PartyId>(p), shared,
                                                     inputs[p]));
  }
  return parties;
}

}  // namespace fairsfe::fair
