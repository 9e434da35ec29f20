// Prime field F_p with p = 2^61 - 1 (a Mersenne prime).
//
// Backs the information-theoretic one-time MAC and Shamir secret sharing.
// The Mersenne modulus admits branch-light reduction; multiplication goes
// through unsigned __int128 and is defined inline (the MAC folds call it per
// 7-byte chunk).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bytes.h"

namespace fairsfe {

class Rng;

/// Field element of F_p, p = 2^61 - 1. Value-semantic; always reduced.
class Fp {
 public:
  static constexpr std::uint64_t kP = (std::uint64_t{1} << 61) - 1;

  constexpr Fp() : v_(0) {}
  /// Reduces v mod p.
  explicit constexpr Fp(std::uint64_t v) : v_(reduce64(v)) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }

  friend constexpr Fp operator+(Fp a, Fp b) {
    std::uint64_t s = a.v_ + b.v_;
    if (s >= kP) s -= kP;
    return from_reduced(s);
  }
  friend constexpr Fp operator-(Fp a, Fp b) {
    std::uint64_t s = a.v_ + kP - b.v_;
    if (s >= kP) s -= kP;
    return from_reduced(s);
  }
  friend Fp operator*(Fp a, Fp b) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(a.v_) * static_cast<unsigned __int128>(b.v_);
    // prod < 2^122; split at bit 61 and fold (2^61 ≡ 1 mod p).
    const std::uint64_t lo = static_cast<std::uint64_t>(prod & kP);
    const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + (hi & kP) + (hi >> 61);
    s = (s & kP) + (s >> 61);
    if (s >= kP) s -= kP;
    return from_reduced(s);
  }
  friend constexpr bool operator==(Fp a, Fp b) { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Fp a, Fp b) { return a.v_ != b.v_; }

  Fp& operator+=(Fp o) { *this = *this + o; return *this; }
  Fp& operator-=(Fp o) { *this = *this - o; return *this; }
  Fp& operator*=(Fp o) { *this = *this * o; return *this; }

  [[nodiscard]] Fp pow(std::uint64_t e) const;
  /// Multiplicative inverse. Precondition: *this != 0.
  [[nodiscard]] Fp inverse() const;

  /// Uniformly random field element.
  static Fp random(Rng& rng);

 private:
  static constexpr std::uint64_t reduce64(std::uint64_t v) {
    // v < 2^64; fold the top bits twice.
    v = (v & kP) + (v >> 61);
    if (v >= kP) v -= kP;
    return v;
  }
  static constexpr Fp from_reduced(std::uint64_t v) {
    Fp f;
    f.v_ = v;
    return f;
  }

  std::uint64_t v_ = 0;
};

/// Split a byte string into field elements (7 bytes per element, with a
/// length-framing element first so the mapping is injective).
std::vector<Fp> bytes_to_field(ByteView data);

/// Serialize / parse a field element (8 bytes little-endian).
Bytes fp_to_bytes(Fp x);
std::optional<Fp> fp_from_bytes(ByteView data);

}  // namespace fairsfe
