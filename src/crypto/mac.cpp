#include "crypto/mac.h"

#include <bit>
#include <cstring>

#include "crypto/rng.h"

namespace fairsfe {

MacKey MacKey::random(Rng& rng) {
  return MacKey{Fp::random(rng), Fp::random(rng)};
}

Bytes MacKey::to_bytes() const {
  Writer w;
  w.u64(a.value()).u64(b.value());
  return w.take();
}

std::optional<MacKey> MacKey::from_bytes(ByteView data) {
  Reader r(data);
  const auto av = r.u64();
  const auto bv = r.u64();
  if (!av || !bv || *av >= Fp::kP || *bv >= Fp::kP) return std::nullopt;
  return MacKey{Fp(*av), Fp(*bv)};
}

namespace {
// Element k + 2 of the bytes_to_field sequence: the 7-byte little-endian
// chunk at offset 7k (shorter at the end).
std::uint64_t chunk_at(ByteView msg, std::size_t off) {
  if constexpr (std::endian::native == std::endian::little) {
    if (off + 8 <= msg.size()) {
      std::uint64_t v = 0;
      std::memcpy(&v, msg.data() + off, 8);
      return v & 0x00ff'ffff'ffff'ffffULL;
    }
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 7 && off + i < msg.size(); ++i) {
    v |= static_cast<std::uint64_t>(msg[off + i]) << (8 * i);
  }
  return v;
}
}  // namespace

Fp mac_fold(const MacKey& key, ByteView msg) {
  // Horner from the last chunk down to the length element:
  // b + a·(m_1 + a·(m_2 + … + a·m_ℓ)), one multiply per element.
  Fp acc;
  for (std::size_t k = (msg.size() + 6) / 7; k-- > 0;) {
    acc = (acc + Fp(chunk_at(msg, 7 * k))) * key.a;
  }
  acc = (acc + Fp(static_cast<std::uint64_t>(msg.size()))) * key.a;
  return key.b + acc;
}

Bytes mac_tag(const MacKey& key, ByteView msg) {
  return fp_to_bytes(mac_fold(key, msg));
}

bool mac_verify(const MacKey& key, ByteView msg, ByteView tag) {
  const std::uint64_t v = mac_fold(key, msg).value();
  std::uint8_t expect[8];
  for (int i = 0; i < 8; ++i) expect[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return ct_equal(expect, tag);
}

}  // namespace fairsfe
