#include "fair/auth_stream.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagGkOpening = 60;
}  // namespace

Bytes encode_gk_opening(std::size_t j, ByteView opening) {
  // u8 tag ‖ u32 j ‖ blob(opening), in one allocation.
  Bytes out(9 + opening.size());
  out[0] = kTagGkOpening;
  write_le32(out.data() + 1, static_cast<std::uint32_t>(j));
  write_le32(out.data() + 5, static_cast<std::uint32_t>(opening.size()));
  if (!opening.empty()) std::memcpy(out.data() + 9, opening.data(), opening.size());
  return out;
}

std::optional<std::pair<std::size_t, ByteView>> decode_gk_opening(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagGkOpening) return std::nullopt;
  const auto j = r.u32();
  const auto body = r.blob_view();
  if (!j || !body || !r.at_end()) return std::nullopt;
  return std::make_pair(static_cast<std::size_t>(*j), *body);
}

std::vector<Bytes> deal_auth_stream_payloads(std::size_t rounds, std::size_t i_star,
                                             const Bytes& y,
                                             const std::function<Bytes()>& fake_a,
                                             const std::function<Bytes()>& fake_b, Rng& rng) {
  // Sized for fakes as long as y (exact for the fixed-width outputs dealt
  // here; the buffers still grow if a fake is longer).
  const std::size_t size = 8 + y.size() + 2 * rounds * AuthShare2::blob_size(y.size());
  sim::FuncOutputWriter f1(size), f2(size);
  Writer& w1 = f1.body();
  Writer& w2 = f2.body();
  w1.u32(static_cast<std::uint32_t>(rounds)).blob(fake_a());  // a_0 for p1
  w2.u32(static_cast<std::uint32_t>(rounds)).blob(fake_b());  // b_0 for p2
  for (std::size_t j = 1; j <= rounds; ++j) {
    if (j < i_star) {
      const Bytes a_j = fake_a();
      const Bytes b_j = fake_b();
      deal_auth_share2(a_j, rng, w1, w2);
      deal_auth_share2(b_j, rng, w1, w2);
    } else {
      deal_auth_share2(y, rng, w1, w2);
      deal_auth_share2(y, rng, w1, w2);
    }
  }
  std::vector<Bytes> payloads;  // moved in: an initializer list would copy
  payloads.push_back(f1.take());
  payloads.push_back(f2.take());
  return payloads;
}

DealtBody::DealtBody(Bytes body, std::vector<std::uint32_t> offsets)
    : body_(std::make_shared<const Bytes>(std::move(body))),
      offsets_(std::make_shared<const std::vector<std::uint32_t>>(std::move(offsets))) {}

Reader DealtBody::at(std::size_t k) const {
  return Reader(ByteView(*body_).subspan((*offsets_)[k]));
}

std::optional<AuthStreams> AuthStreams::receive(ByteView payload, sim::PartyId id) {
  const auto body = sim::decode_func_output(payload);
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
  return AuthStreams(DealtBody(Bytes(body->begin(), body->end()), std::move(offsets)), id);
}

Bytes AuthStreams::fallback() const {
  Reader r = body_.at(0);
  const ByteView v = *r.blob_view();
  return Bytes(v.begin(), v.end());
}

ByteView AuthStreams::record(std::size_t j, bool incoming) const {
  // p1 reads the a-stream and opens the b-stream; p2 vice versa.
  const bool a_stream = incoming == (id_ == 0);
  Reader r = body_.at(2 * j - (a_stream ? 1 : 0));
  return *r.blob_view();
}

std::vector<Message> AuthStreams::opening(std::size_t j) const {
  if (j == 0 || j > rounds()) return {};
  // A record starts with blob(summand) ‖ blob(tag): the opening's wire
  // format (AuthShare2::opening_to_bytes), framed straight from the body.
  // Its length words were validated at receipt.
  const ByteView rec = record(j, /*incoming=*/false);
  const std::size_t summand_size = read_le32(rec.data());
  const std::size_t tag_size = read_le32(rec.data() + 4 + summand_size);
  const ByteView opening = rec.first(8 + summand_size + tag_size);
  return {Message{id_, static_cast<sim::PartyId>(1 - id_), encode_gk_opening(j, opening)}};
}

std::optional<Bytes> AuthStreams::reconstruct(std::size_t j, MsgView in) const {
  if (j == 0 || j > rounds()) return std::nullopt;
  for (const Message& m : in) {
    if (m.from != 1 - id_) continue;
    const auto dec = decode_gk_opening(m.payload);
    if (dec && dec->first == j) {
      return auth_reconstruct2(*AuthShare2::parse(record(j, /*incoming=*/true)), dec->second);
    }
  }
  return std::nullopt;
}

}  // namespace fairsfe::fair
