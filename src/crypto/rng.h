// Deterministic, forkable randomness source for the whole simulation.
//
// Every execution of a protocol under the Monte-Carlo utility estimator is
// seeded explicitly; parties, the adversary, and hybrid functionalities each
// receive an independently forked stream so that changing one component's
// consumption pattern never perturbs another's randomness. Forking derives a
// fresh ChaCha20 key as HMAC(parent_key, label), i.e., streams are
// computationally independent.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "crypto/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"

namespace fairsfe {

class Rng {
 public:
  /// Seed from a 64-bit integer (expanded to a 32-byte key).
  explicit Rng(std::uint64_t seed);
  /// Seed from a full 32-byte key.
  explicit Rng(const Bytes& key);

  /// Derive an independent stream. Distinct labels give independent streams;
  /// repeated calls with the same label also give independent streams (an
  /// internal fork counter is mixed in).
  Rng fork(std::string_view label);

  /// Counter-based stream derivation: HMAC(key, label ‖ index). Unlike
  /// fork(), this is a pure function of (key, label, index) — it neither
  /// reads nor advances the internal fork counter, so the derived stream is
  /// independent of call order and thread interleaving. For an Rng that has
  /// never forked, fork_at(label, i) equals the i-th sequential fork(label).
  [[nodiscard]] Rng fork_at(std::string_view label, std::uint64_t index) const;

  std::uint64_t u64();
  /// Uniform in [0, n). Precondition: n > 0. Rejection sampling (no bias).
  std::uint64_t below(std::uint64_t n);
  /// Uniform bit.
  bool bit();
  /// Uniform byte string of length n.
  Bytes bytes(std::size_t n);
  /// Fill `out` with uniform bytes in place (no allocation). Consumes the
  /// same keystream as bytes(out.size()).
  void fill(std::span<std::uint8_t> out);
  /// Uniform double in [0, 1).
  double uniform();

 private:
  explicit Rng(ByteView key) : stream_(key, kZeroNonce) {}

  static constexpr std::uint8_t kZeroNonce[ChaCha20::kNonceSize] = {};

  /// Also holds the key: fork_at() reads it back from the stream.
  ChaCha20 stream_;
  std::uint64_t fork_counter_ = 0;
  /// HMAC key schedule (ipad/opad midstates), built on the first fork and
  /// reused for every later one — forking is the estimator's hot path (four
  /// derivations per Monte-Carlo run; 256 per bit-sliced batch). Lazy so
  /// leaf streams that only draw bytes never pay for it, shared so the
  /// fork-counter-free fork_at() stays const. Pure key-derived cache: it
  /// never changes any derived stream.
  mutable std::shared_ptr<const HmacSha256> hmac_;
};

}  // namespace fairsfe
