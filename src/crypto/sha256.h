// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC, hash commitments, and Lamport one-time
// signatures. Incremental (`update`/`finish`) and one-shot (`sha256`) APIs.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace fairsfe {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  Sha256& update(ByteView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Bytes finish();
  /// finish() into out[0..kDigestSize).
  void finish(std::uint8_t* out);

 private:
  /// HMAC finishes from the cached ipad/opad midstates (state_) directly.
  friend class HmacSha256;

  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
Bytes sha256(ByteView data);
/// One-shot SHA-256 into out[0..32), without allocating.
void sha256(ByteView data, std::uint8_t* out);

/// Domain-separated hash: SHA-256(label_len || label || data).
Bytes sha256_labeled(std::string_view label, ByteView data);

}  // namespace fairsfe
