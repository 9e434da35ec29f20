// Information-theoretic one-time message authentication code.
//
// This is the `tag(·, k)` primitive of the paper's authenticated secret
// sharing (Appendix A). Key k = (a, b) ∈ F_p², message m is injectively
// mapped to field elements m_1..m_ℓ, and
//
//     tag(m, k) = b + Σ_i a^i · m_i .
//
// Forging a tag for a new message after seeing one (message, tag) pair
// succeeds with probability ≤ ℓ/p — negligible for our parameters. Being
// information-theoretic it is *stronger* than the computational MAC the
// paper assumes, which only helps the reproduction (see DESIGN.md §6).
#pragma once

#include <optional>

#include "crypto/bytes.h"
#include "crypto/field.h"

namespace fairsfe {

class Rng;

// TAINT-SOURCE(key): MAC key; disclosure forges tags
struct MacKey {
  Fp a;
  Fp b;

  static constexpr std::size_t kSize = 16;

  static MacKey random(Rng& rng);

  /// Serialize (kSize bytes).
  [[nodiscard]] Bytes to_bytes() const;
  static std::optional<MacKey> from_bytes(ByteView data);
};

/// The tag of `msg` under `key` as a field element: b + Σ a^i·m_i over the
/// bytes_to_field sequence of msg. Its value, as 8 little-endian bytes, is
/// the tag; dealers write it with Writer::u64 directly.
Fp mac_fold(const MacKey& key, ByteView msg);

/// Compute the one-time MAC tag of `msg` under `key` (8 bytes).
Bytes mac_tag(const MacKey& key, ByteView msg);

/// Verify a tag; tolerant of malformed tags (returns false).
bool mac_verify(const MacKey& key, ByteView msg, ByteView tag);

}  // namespace fairsfe
