// Authenticated two-out-of-two additive secret sharing — the scheme of the
// paper's Appendix A, instantiated with XOR-additive summands and the
// information-theoretic one-time MAC of `crypto/mac.h`.
//
// A sharing of secret s is a pair of summands (s₁, s₂) with
//     s₁ ⊕ s₂ = payload(s) := s ‖ tag(s, k₁) ‖ tag(s, k₂),
// where k₁, k₂ are MAC keys associated with p₁ and p₂. Party pᵢ holds
//     ⟨s⟩ᵢ = (sᵢ, tag(sᵢ, k₋ᵢ))  together with its own key kᵢ.
//
// Reconstruction towards pᵢ: p₋ᵢ sends its (summand, tag); pᵢ verifies the
// summand tag under kᵢ, recombines, and verifies the inner tag(s, kᵢ). Any
// tampering by the other party is detected except with probability ≤ ℓ/p.
#pragma once

#include <optional>

#include "crypto/bytes.h"
#include "crypto/mac.h"

namespace fairsfe {

class Rng;

/// A share read in place: views into its wire form or into an AuthShare2.
// TAINT-SOURCE(share): a party's authenticated summand+tag, borrowed
struct AuthShare2View {
  ByteView summand;
  ByteView summand_tag;
  MacKey key;
};

/// One party's share of an authenticated 2-of-2 sharing.
// TAINT-SOURCE(share): a party's authenticated summand+tag; leaking it collapses the 2-party hiding property
struct AuthShare2 {
  Bytes summand;      ///< sᵢ
  Bytes summand_tag;  ///< tag(sᵢ, k₋ᵢ) — verifiable by the *other* party
  MacKey key;         ///< kᵢ — this party's verification key

  /// Wire format of the (summand, tag) pair sent during reconstruction.
  [[nodiscard]] Bytes opening_to_bytes() const;

  [[nodiscard]] Bytes to_bytes() const;
  static std::optional<AuthShare2> from_bytes(ByteView data);
  /// from_bytes without the copies: the views borrow `data`.
  static std::optional<AuthShare2View> parse(ByteView data);
  /// True iff from_bytes(data) would succeed; allocation-free.
  static bool well_formed(ByteView data) { return parse(data).has_value(); }
  /// Bytes deal_auth_share2 appends per share of an n-byte secret, blob(share):
  /// the payload is n + 28 bytes (three framed fields, two 8-byte tags), and
  /// the share frames payload, an 8-byte tag and a 16-byte key (+36), plus
  /// its own 4-byte length.
  static constexpr std::size_t blob_size(std::size_t secret_size) { return secret_size + 68; }
};

/// Deal an authenticated sharing of `secret` straight into two bodies:
/// append blob(⟨s⟩₁) (to_bytes framed as a blob) to w1 and blob(⟨s⟩₂) to w2.
/// The Rng draws are k₁, k₂, then s₁ (s₂ = payload ⊕ s₁). Nothing is
/// allocated beyond the writers' growth for a secret of up to 100 bytes.
/// Precondition: &w1 != &w2.
// TAINT-SOURCE(share): writes the full sharing of `secret`
void deal_auth_share2(ByteView secret, Rng& rng, Writer& w1, Writer& w2);

/// Reconstruct towards the holder of `mine`, given the other party's opening
/// message (wire format of AuthShare2::opening_to_bytes). Returns the secret,
/// or std::nullopt if either MAC check fails (⇒ the receiver aborts).
std::optional<Bytes> auth_reconstruct2(const AuthShare2View& mine, ByteView other_opening);
std::optional<Bytes> auth_reconstruct2(const AuthShare2& mine, ByteView other_opening);

}  // namespace fairsfe
