#include "rpd/balance.h"

namespace fairsfe::rpd {

double BalanceProfile::sum() const {
  double s = 0.0;
  for (const AttackResult& r : best_per_t) s += r.estimate.utility;
  return s;
}

double BalanceProfile::sum_margin() const {
  double m = 0.0;
  for (const AttackResult& r : best_per_t) m += r.estimate.margin();
  return m;
}

BalanceProfile balance_profile(
    std::size_t n,
    const std::function<std::vector<NamedAttack>(std::size_t t)>& attacks_for_t,
    const PayoffVector& payoff, const EstimatorOptions& opts) {
  BalanceProfile profile;
  profile.n = n;
  EstimatorOptions o = opts;
  for (std::size_t t = 1; t <= n - 1; ++t) {
    const ProtocolAssessment a = assess_protocol(attacks_for_t(t), payoff, o);
    o.seed += a.attacks.size();
    profile.best_per_t.push_back(a.attacks[a.best_index]);
  }
  return profile;
}

bool is_utility_balanced(const BalanceProfile& profile, const PayoffVector& payoff) {
  return profile.sum() <= payoff.balance_bound(profile.n) + profile.sum_margin();
}

}  // namespace fairsfe::rpd
