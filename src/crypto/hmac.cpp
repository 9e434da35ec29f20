#include "crypto/hmac.h"

#include <cstring>

#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace fairsfe {

HmacSha256::HmacSha256(ByteView key) {
  std::uint8_t k[Sha256::kBlockSize] = {};
  if (key.size() > Sha256::kBlockSize) {
    sha256(key, k);
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t ipad[Sha256::kBlockSize], opad[Sha256::kBlockSize];
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

void HmacSha256::mac(ByteView msg, std::uint8_t* out) const {
  // Both hashes resume from a midstate one block in. The inner one finishes
  // in a single padded block whenever the message fits (every fork label
  // does); the outer one always does, since its input is a 32-byte digest.
  using crypto_kernels::sha256_finish_single_block;
  std::uint8_t inner_digest[Sha256::kDigestSize];
  if (msg.size() <= crypto_kernels::kSha256MaxSingleBlockTail) {
    sha256_finish_single_block(inner_.state_.data(), Sha256::kBlockSize, msg, inner_digest);
  } else {
    Sha256 inner = inner_;
    inner.update(msg).finish(inner_digest);
  }
  sha256_finish_single_block(outer_.state_.data(), Sha256::kBlockSize, inner_digest, out);
}

Bytes HmacSha256::mac(ByteView msg) const {
  Bytes out(Sha256::kDigestSize);
  mac(msg, out.data());
  return out;
}

Bytes hmac_sha256(ByteView key, ByteView msg) {
  return HmacSha256(key).mac(msg);
}

bool hmac_verify(ByteView key, ByteView msg, ByteView tag) {
  return ct_equal(hmac_sha256(key, msg), tag);
}

}  // namespace fairsfe
