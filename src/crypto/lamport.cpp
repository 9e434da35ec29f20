#include "crypto/lamport.h"

#include "crypto/kernels.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace fairsfe {

namespace {
constexpr std::size_t kBits = 256;
constexpr std::size_t kChunk = 32;
constexpr std::size_t kKeyBytes = 2 * kBits * kChunk;

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
  const std::uint8_t* sk = kp.signing_key.data();
  std::uint8_t* vk = kp.verification_key.data();
  for (std::size_t off = 0; off < kKeyBytes; off += 2 * kChunk) {
    crypto_kernels::sha256_32x2(sk + off, sk + off + kChunk, vk + off, vk + off + kChunk);
  }
  return kp;
}

Bytes lamport_sign(const Bytes& signing_key, ByteView msg) {
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
  std::uint8_t h[2 * kChunk];
  for (std::size_t i = 0; i < kBits; i += 2) {
    crypto_kernels::sha256_32x2(sig.data() + i * kChunk, sig.data() + (i + 1) * kChunk, h,
                                h + kChunk);
    for (std::size_t j = 0; j < 2; ++j) {
      const std::size_t idx = 2 * (i + j) + static_cast<std::size_t>(msg_bit(digest, i + j));
      if (!ct_equal(ByteView(h + j * kChunk, kChunk), slice(verification_key, idx))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace fairsfe
