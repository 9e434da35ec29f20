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

/// SHA-256 of many short messages, sixteen at a time. On an AVX-512 CPU
/// add() pads each message of at most 55 bytes into a queued block, and the
/// sixteenth queued block hashes the group in one 16-lane pass; flush()
/// hashes whatever is left, one block at a time. A longer message, and every
/// message on any other CPU, is hashed by add() itself. Every digest equals
/// sha256(msg); it is written to `out` by the time flush() returns, so each
/// `out` must stay valid until then.
class Sha256Batch {
 public:
  static constexpr std::size_t kLanes = 16;

  Sha256Batch() = default;
  Sha256Batch(const Sha256Batch&) = delete;
  Sha256Batch& operator=(const Sha256Batch&) = delete;

  void add(ByteView msg, std::uint8_t* out);
  void flush();

 private:
  alignas(64) std::uint8_t blocks_[kLanes * Sha256::kBlockSize];
  std::uint8_t* outs_[kLanes];
  std::size_t queued_ = 0;
};

/// Domain-separated hash: SHA-256(label_len || label || data).
Bytes sha256_labeled(std::string_view label, ByteView data);

}  // namespace fairsfe
