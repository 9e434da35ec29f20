#include "crypto/auth_share.h"

#include "crypto/rng.h"
#include "util/check.h"

namespace fairsfe {

namespace {
/// Payloads (a secret of up to 100 bytes plus 28 bytes of framing and
/// tags) that dealing and reconstruction hold on the stack.
constexpr std::size_t kInlinePayload = 128;

/// Frame the share record whose summand already sits at rec[8, 8 + len):
/// blob length, summand length, then blob(tag) and blob(key) behind it —
/// blob(to_bytes()) of the share.
void frame_record(std::uint8_t* rec, std::size_t len, Fp tag, const MacKey& key) {
  write_le32(rec, static_cast<std::uint32_t>(len + 36));
  write_le32(rec + 4, static_cast<std::uint32_t>(len));
  std::uint8_t* t = rec + 8 + len;
  write_le32(t, 8);
  write_le64(t + 4, tag.value());
  write_le32(t + 12, MacKey::kSize);
  write_le64(t + 16, key.a.value());
  write_le64(t + 24, key.b.value());
}
}  // namespace

Bytes AuthShare2::opening_to_bytes() const {
  Writer w;
  w.blob(summand).blob(summand_tag);
  return w.take();
}

Bytes AuthShare2::to_bytes() const {
  Writer w;
  w.blob(summand).blob(summand_tag).blob(key.to_bytes());
  return w.take();
}

std::optional<AuthShare2View> AuthShare2::parse(ByteView data) {
  Reader r(data);
  const auto summand = r.blob_view();
  const auto tag = r.blob_view();
  const auto key_bytes = r.blob_view();
  if (!summand || !tag || !key_bytes || !r.at_end()) return std::nullopt;
  const auto key = MacKey::from_bytes(*key_bytes);
  if (!key) return std::nullopt;
  return AuthShare2View{*summand, *tag, *key};
}

std::optional<AuthShare2> AuthShare2::from_bytes(ByteView data) {
  const auto v = parse(data);
  if (!v) return std::nullopt;
  return AuthShare2{Bytes(v->summand.begin(), v->summand.end()),
                    Bytes(v->summand_tag.begin(), v->summand_tag.end()), v->key};
}

void deal_auth_share2(ByteView secret, Rng& rng, Writer& w1, Writer& w2) {
  FAIRSFE_CHECK(&w1 != &w2, "deal_auth_share2: the two shares need two writers");
  const MacKey k1 = MacKey::random(rng);
  const MacKey k2 = MacKey::random(rng);
  // payload(s) = blob(s) ‖ blob(tag(s, k₁)) ‖ blob(tag(s, k₂)).
  const std::size_t n = secret.size();
  const std::size_t len = n + 28;
  ScratchBytes<kInlinePayload> payload(len);
  std::uint8_t* p = payload.data();
  write_le32(p, static_cast<std::uint32_t>(n));
  if (n != 0) std::memcpy(p + 4, secret.data(), n);
  write_le32(p + 4 + n, 8);
  write_le64(p + 8 + n, mac_fold(k1, secret).value());
  write_le32(p + 16 + n, 8);
  write_le64(p + 20 + n, mac_fold(k2, secret).value());

  // The 2-of-2 XOR sharing of the payload, each summand written where its
  // record keeps it: s₁ = rng.bytes(len), s₂ = payload ⊕ s₁.
  std::uint8_t* rec1 = w1.extend(AuthShare2::blob_size(n)).data();
  std::uint8_t* rec2 = w2.extend(AuthShare2::blob_size(n)).data();
  std::uint8_t* s1 = rec1 + 8;
  std::uint8_t* s2 = rec2 + 8;
  rng.fill({s1, len});
  for (std::size_t i = 0; i < len; ++i) s2[i] = p[i] ^ s1[i];
  // Each summand is authenticated under the *other* party's key so the
  // receiver of an opening can verify it.
  frame_record(rec1, len, mac_fold(k2, {s1, len}), k1);
  frame_record(rec2, len, mac_fold(k1, {s2, len}), k2);
}

std::optional<Bytes> auth_reconstruct2(const AuthShare2View& mine, ByteView other_opening) {
  Reader r(other_opening);
  const auto other_summand = r.blob_view();
  const auto other_tag = r.blob_view();
  if (!other_summand || !other_tag || !r.at_end()) return std::nullopt;
  if (!mac_verify(mine.key, *other_summand, *other_tag)) return std::nullopt;
  if (other_summand->size() != mine.summand.size()) return std::nullopt;

  ScratchBytes<kInlinePayload> payload(mine.summand.size());
  std::uint8_t* p = payload.data();
  for (std::size_t i = 0; i < mine.summand.size(); ++i) {
    p[i] = mine.summand[i] ^ (*other_summand)[i];
  }
  Reader pr(payload.span());
  const auto secret = pr.blob_view();
  const auto tag1 = pr.blob_view();
  const auto tag2 = pr.blob_view();
  if (!secret || !tag1 || !tag2 || !pr.at_end()) return std::nullopt;
  // Verify the inner tag under our own key. We do not know whether we are p₁
  // or p₂ in the sharing, so accept if our key verifies either inner tag;
  // under an honest dealer exactly one of them is ours.
  if (!mac_verify(mine.key, *secret, *tag1) && !mac_verify(mine.key, *secret, *tag2)) {
    return std::nullopt;
  }
  return Bytes(secret->begin(), secret->end());
}

std::optional<Bytes> auth_reconstruct2(const AuthShare2& mine, ByteView other_opening) {
  return auth_reconstruct2(AuthShare2View{mine.summand, mine.summand_tag, mine.key},
                           other_opening);
}

}  // namespace fairsfe
