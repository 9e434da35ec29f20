#include "fair/auth_stream.h"

#include <algorithm>
#include <limits>

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagGkOpening = 60;
}  // namespace

Bytes encode_gk_opening(std::size_t j, ByteView opening) {
  Writer w;
  w.u8(kTagGkOpening).u32(static_cast<std::uint32_t>(j)).blob(opening);
  return w.take();
}

std::optional<std::pair<std::size_t, Bytes>> decode_gk_opening(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagGkOpening) return std::nullopt;
  const auto j = r.u32();
  const auto body = r.blob();
  if (!j || !body || !r.at_end()) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(*j), *body);
}

std::vector<Bytes> deal_auth_streams(std::size_t rounds, std::size_t i_star, const Bytes& y,
                                     const std::function<Bytes()>& fake_a,
                                     const std::function<Bytes()>& fake_b, Rng& rng) {
  // Sized for fakes as long as y (exact for the fixed-width outputs dealt
  // here; the buffers still grow if a fake is longer).
  const std::size_t size = 8 + y.size() + 2 * rounds * AuthShare2::blob_size(y.size());
  Writer w1, w2;
  w1.reserve(size).u32(static_cast<std::uint32_t>(rounds)).blob(fake_a());  // a_0 for p1
  w2.reserve(size).u32(static_cast<std::uint32_t>(rounds)).blob(fake_b());  // b_0 for p2
  for (std::size_t j = 1; j <= rounds; ++j) {
    const Bytes a_j = (j < i_star) ? fake_a() : y;
    const Bytes b_j = (j < i_star) ? fake_b() : y;
    const AuthSharing2 sa = auth_share2(a_j, rng);
    const AuthSharing2 sb = auth_share2(b_j, rng);
    sa.share1.write_blob(w1);
    sb.share1.write_blob(w1);
    sa.share2.write_blob(w2);
    sb.share2.write_blob(w2);
  }
  std::vector<Bytes> bodies;
  bodies.push_back(w1.take());
  bodies.push_back(w2.take());
  return bodies;
}

DealtBody::DealtBody(Bytes body, std::vector<std::uint32_t> offsets)
    : body_(std::make_shared<const Bytes>(std::move(body))),
      offsets_(std::make_shared<const std::vector<std::uint32_t>>(std::move(offsets))) {}

Reader DealtBody::at(std::size_t k) const {
  return Reader(ByteView(*body_).subspan((*offsets_)[k]));
}

std::optional<AuthStreams> AuthStreams::receive(ByteView payload, sim::PartyId id) {
  auto body = sim::decode_func_output(payload);
  if (!body || body->size() > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  Reader r(*body);
  const auto rounds = r.u32();
  if (!rounds) return std::nullopt;
  const std::size_t records = 2 * std::size_t{*rounds} + 1;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(std::min(records, r.remaining() / 4));  // a record takes >= 4 bytes
  // Every record is a length-prefixed blob; a share record must also parse
  // as an AuthShare2. Bytes after the last record are ignored.
  for (std::size_t k = 0; k < records; ++k) {
    offsets.push_back(static_cast<std::uint32_t>(body->size() - r.remaining()));
    const auto record = r.blob_view();
    if (!record || (k > 0 && !AuthShare2::well_formed(*record))) return std::nullopt;
  }
  return AuthStreams(DealtBody(std::move(*body), std::move(offsets)), id);
}

Bytes AuthStreams::fallback() const {
  Reader r = body_.at(0);
  const ByteView v = *r.blob_view();
  return Bytes(v.begin(), v.end());
}

AuthShare2 AuthStreams::share(std::size_t j, bool incoming) const {
  // p1 reads the a-stream and opens the b-stream; p2 vice versa.
  const bool a_stream = incoming == (id_ == 0);
  Reader r = body_.at(2 * j - (a_stream ? 1 : 0));
  return *AuthShare2::from_bytes(*r.blob_view());
}

std::vector<Message> AuthStreams::opening(std::size_t j) const {
  if (j == 0 || j > rounds()) return {};
  return {Message{id_, static_cast<sim::PartyId>(1 - id_),
                  encode_gk_opening(j, share(j, /*incoming=*/false).opening_to_bytes())}};
}

std::optional<Bytes> AuthStreams::reconstruct(std::size_t j, MsgView in) const {
  if (j == 0 || j > rounds()) return std::nullopt;
  for (const Message& m : in) {
    if (m.from != 1 - id_) continue;
    const auto dec = decode_gk_opening(m.payload);
    if (dec && dec->first == j) {
      return auth_reconstruct2(share(j, /*incoming=*/true), dec->second);
    }
  }
  return std::nullopt;
}

}  // namespace fairsfe::fair
