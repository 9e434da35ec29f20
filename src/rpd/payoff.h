// Payoff vectors ~γ = (γ00, γ01, γ10, γ11) and the natural classes Γfair /
// Γ+fair of the paper (Section 3 and Section 4.2).
//
//   Γfair :  γ01 = min γ (canonically 0),  γ01 ≤ min{γ00, γ11},
//            max{γ00, γ11} < γ10.
//   Γ+fair:  additionally γ00 ≤ γ11 (the attacker prefers learning the
//            output over nobody learning it).
#pragma once

#include <array>
#include <string>

#include "rpd/events.h"

namespace fairsfe::rpd {

struct PayoffVector {
  double g00 = 0.0;
  double g01 = 0.0;
  double g10 = 1.0;
  double g11 = 0.0;

  [[nodiscard]] double of(FairnessEvent e) const;

  /// Membership in Γfair (γ01 must equal 0; see normalized()).
  [[nodiscard]] bool in_gamma_fair() const;
  /// Membership in Γ+fair ⊆ Γfair.
  [[nodiscard]] bool in_gamma_fair_plus() const;

  /// Shift so that γ01 = 0 (utilities are translation-invariant per the
  /// paper's wlog argument).
  [[nodiscard]] PayoffVector normalized() const;

  [[nodiscard]] std::string to_string() const;

  // Closed-form bounds from the paper, used by benches and tests.

  /// Theorem 3 / Theorem 4: optimal two-party utility (γ10 + γ11)/2.
  [[nodiscard]] double two_party_opt_bound() const { return (g10 + g11) / 2.0; }
  /// Lemma 11: utility bound for a t-adversary against ΠOptnSFE.
  [[nodiscard]] double nparty_bound(std::size_t t, std::size_t n) const {
    return (static_cast<double>(t) * g10 + static_cast<double>(n - t) * g11) /
           static_cast<double>(n);
  }
  /// Lemma 13: optimal multi-party utility ((n-1)γ10 + γ11)/n.
  [[nodiscard]] double nparty_opt_bound(std::size_t n) const {
    return nparty_bound(n - 1, n);
  }
  /// Lemma 14 / 16: utility-balance bound (n-1)(γ10 + γ11)/2.
  [[nodiscard]] double balance_bound(std::size_t n) const {
    return static_cast<double>(n - 1) * (g10 + g11) / 2.0;
  }

  /// The canonical vector used throughout the benches:
  /// (γ00, γ01, γ10, γ11) = (0.25, 0, 1, 0.5) ∈ Γ+fair.
  static PayoffVector standard();
  /// The vector (0, 0, 1, 0) used in the 1/p-security comparison (Lemma 25).
  static PayoffVector partial_fairness();
};

/// Named Γ presets — the single definition point for every γ the experiment
/// and bench layers use. Scenario TUs reference these by name; raw
/// `PayoffVector{...}` brace-literals outside src/rpd and tests are banned by
/// the fairsfe-analyze `gamma-literal` rule, so a vector's value can never drift
/// between the TUs that share it.
namespace payoff {

/// The canonical Γ+fair vector (0.25, 0, 1, 0.5) — alias of
/// PayoffVector::standard() for symmetric-by-name call sites.
PayoffVector standard();
/// The standard vector as used by the two-party swap/exchange experiments
/// (identical values to standard(); named for the workload).
PayoffVector swap_standard();
/// The standard vector as used by the contract-signing experiments Π₁/Π₂
/// (identical values to standard(); named for the workload).
PayoffVector contract_gamma();
/// (0, 0, 1, 0): only the unfair event pays — the 1/p-security comparison
/// vector (Lemma 25 and the BOO partial-fairness scenarios).
PayoffVector partial_fairness();
/// (0.6, 0, 1, 0.5) ∈ Γfair \ Γ+fair: the adversary prefers mutual failure
/// over a fair outcome (the exp18 "spiteful" accounting).
PayoffVector spiteful();
/// (g11/2, 0, 1, g11): the exp15 sensitivity family, parameterized by the
/// fair-outcome payoff g11 ∈ (0, 1).
PayoffVector sensitivity(double g11);
/// (0.5, 0.25, 1.25, 0.75): a shifted (γ01 ≠ 0) vector whose normalized()
/// form equals standard() — exercises the translation-invariance wlog.
PayoffVector shifted_standard();

}  // namespace payoff

}  // namespace fairsfe::rpd
