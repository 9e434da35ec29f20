// The relative-fairness partial order (Definition 1) and protocol assessment.
//
// Π ⪰γ Π′ ("Π is at least as γ-fair as Π′") iff
//     sup_A u_A(Π, A)  ≤negl  sup_A u_A(Π′, A).
// Operationally the supremum is taken over a finite family of named attack
// strategies (which for the protocols studied here includes the provably
// optimal attacker), estimated by Monte Carlo. Attacks in the family are
// estimated in parallel (attack k reseeded as opts.seed + k), so the
// assessment is deterministic in opts.seed for every thread count.
#pragma once

#include <string>
#include <vector>

#include "rpd/estimator.h"

namespace fairsfe::rpd {

/// A named attack strategy against a fixed protocol: the factory builds the
/// full run (protocol parties + this adversary).
struct NamedAttack {
  std::string name;
  SetupFactory factory;
};

struct AttackResult {
  std::string name;
  UtilityEstimate estimate;
};

/// Utility of the best attacker in the family: sup_A u_A(Π, A).
struct ProtocolAssessment {
  std::vector<AttackResult> attacks;  ///< one per strategy, input order
  std::size_t best_index = 0;

  [[nodiscard]] double best_utility() const { return attacks[best_index].estimate.utility; }
  [[nodiscard]] const std::string& best_attack_name() const { return attacks[best_index].name; }
  [[nodiscard]] double best_margin() const { return attacks[best_index].estimate.margin(); }
};

/// Assess every attack in the family (attack k with seed opts.seed + k) and
/// pick the best, scoring runs through the payoff model. With
/// opts.threads > 1 the family is swept concurrently and the thread budget is
/// split between attacks and runs within each attack.
ProtocolAssessment assess_protocol(const std::vector<NamedAttack>& attacks,
                                   const PayoffModel& model,
                                   const EstimatorOptions& opts);

/// Legacy-vector convenience: assess under a VectorModel over `payoff`
/// (bit-identical to the pre-model assessment).
ProtocolAssessment assess_protocol(const std::vector<NamedAttack>& attacks,
                                   const PayoffVector& payoff,
                                   const EstimatorOptions& opts);

/// Definition 1, empirically: is `a` at least as fair as `b`? Statistical
/// noise is absorbed by both margins (the analogue of the negligible slack).
bool at_least_as_fair(const ProtocolAssessment& a, const ProtocolAssessment& b);

}  // namespace fairsfe::rpd
