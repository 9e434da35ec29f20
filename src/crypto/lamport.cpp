#include "crypto/lamport.h"

#include <cstring>

#include "crypto/kernels.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "util/check.h"

namespace fairsfe {

namespace {
constexpr std::size_t kBits = 256;
constexpr std::size_t kChunk = 32;
constexpr std::size_t kKeyBytes = 2 * kBits * kChunk;
/// Signature chunks hashed per sha256_32_batch call in lamport_verify: one
/// pass of the 16-lane kernel.
constexpr std::size_t kVerifyGroup = 16;

inline ByteView slice(ByteView data, std::size_t index) {
  return data.subspan(index * kChunk, kChunk);
}

inline int msg_bit(const Bytes& digest, std::size_t i) {
  return (digest[i / 8] >> (i % 8)) & 1;
}
}  // namespace

LamportKeyPair lamport_gen(Rng& rng) {
  LamportKeyPair kp;
  kp.signing_key.resize(kKeyBytes);
  rng.fill(kp.signing_key);
  kp.verification_key.resize(kKeyBytes);
  crypto_kernels::sha256_32_batch(kp.signing_key.data(), kp.verification_key.data(), 2 * kBits);
  return kp;
}

Bytes lamport_sign(const Bytes& signing_key, ByteView msg) {
  FAIRSFE_CHECK(signing_key.size() == kKeyBytes, "Lamport signing key must be 2*256*32 bytes");
  const Bytes digest = sha256(msg);
  Bytes sig;
  sig.reserve(kBits * kChunk);
  for (std::size_t i = 0; i < kBits; ++i) {
    const std::size_t idx = 2 * i + static_cast<std::size_t>(msg_bit(digest, i));
    const ByteView pre = slice(signing_key, idx);
    sig.insert(sig.end(), pre.begin(), pre.end());
  }
  return sig;
}

bool lamport_verify(const Bytes& verification_key, ByteView msg, ByteView sig) {
  if (verification_key.size() != kKeyBytes || sig.size() != kBits * kChunk) return false;
  const Bytes digest = sha256(msg);
  // One OR of XORs over all 256 chunk pairs and one branch at the end: the
  // time taken does not depend on where, or whether, the signature differs.
  std::uint64_t diff = 0;
  std::uint8_t h[kVerifyGroup * kChunk];
  for (std::size_t i = 0; i < kBits; i += kVerifyGroup) {
    crypto_kernels::sha256_32_batch(sig.data() + i * kChunk, h, kVerifyGroup);
    for (std::size_t j = 0; j < kVerifyGroup; ++j) {
      const std::size_t idx = 2 * (i + j) + static_cast<std::size_t>(msg_bit(digest, i + j));
      const std::uint8_t* got = h + j * kChunk;
      const std::uint8_t* want = verification_key.data() + idx * kChunk;
      for (std::size_t w = 0; w < kChunk; w += 8) {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::memcpy(&a, got + w, 8);
        std::memcpy(&b, want + w, 8);
        diff |= a ^ b;
      }
    }
  }
  return diff == 0;
}

}  // namespace fairsfe
