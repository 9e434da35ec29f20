// HMAC-SHA256 (RFC 2104), built on the in-tree SHA-256.
//
// Used as the computational MAC option and for key derivation in the RNG
// forking scheme. The protocols in `src/fair` use the information-theoretic
// one-time MAC from `crypto/mac.h` by default; HMAC is provided for the
// computational instantiation and for tests comparing the two.
#pragma once

#include "crypto/bytes.h"
#include "crypto/sha256.h"

namespace fairsfe {

/// A reusable HMAC-SHA256 key: the padded-key compressions (ipad/opad
/// midstates) are computed once at construction, so each mac() costs two
/// SHA-256 block passes instead of four. Byte-identical to hmac_sha256() —
/// this is the hot-path form for callers MACing many messages under one key
/// (the RNG forking scheme derives every child stream this way).
class HmacSha256 {
 public:
  /// Any key length (hashed down if > 64 bytes).
  explicit HmacSha256(ByteView key);

  [[nodiscard]] Bytes mac(ByteView msg) const;
  /// mac(msg) into out[0..32), without allocating.
  void mac(ByteView msg, std::uint8_t* out) const;

 private:
  Sha256 inner_;  ///< state after the ipad block
  Sha256 outer_;  ///< state after the opad block
};

/// One-shot HMAC-SHA256(key, msg). Any key length (hashed down if > 64 bytes).
Bytes hmac_sha256(ByteView key, ByteView msg);

/// Convenience verifier with constant-time tag comparison.
bool hmac_verify(ByteView key, ByteView msg, ByteView tag);

}  // namespace fairsfe
