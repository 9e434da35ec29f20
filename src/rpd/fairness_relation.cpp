#include "rpd/fairness_relation.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace fairsfe::rpd {

ProtocolAssessment assess_protocol(const std::vector<NamedAttack>& attacks,
                                   const PayoffModel& model,
                                   const EstimatorOptions& opts) {
  ProtocolAssessment out;
  out.attacks.resize(attacks.size());

  // Split the thread budget: sweep up to `threads` attacks concurrently, and
  // give each estimation the leftover parallelism. Determinism does not
  // depend on the split (estimates are bit-identical for any thread count).
  const std::size_t threads = util::ThreadPool::resolve(opts.threads);
  const std::size_t outer = std::min<std::size_t>(std::max<std::size_t>(1, threads),
                                                  std::max<std::size_t>(1, attacks.size()));
  const std::size_t inner = std::max<std::size_t>(1, threads / outer);

  util::parallel_for(attacks.size(), outer, [&](std::size_t k) {
    EstimatorOptions attack_opts = opts;
    attack_opts.seed = opts.seed + k;
    attack_opts.threads = inner;
    EstimationTarget target;
    target.factory = attacks[k].factory;
    out.attacks[k] = {attacks[k].name, estimate_utility(target, model, attack_opts)};
  });

  for (std::size_t i = 1; i < out.attacks.size(); ++i) {
    if (out.attacks[i].estimate.utility > out.attacks[out.best_index].estimate.utility) {
      out.best_index = i;
    }
  }
  return out;
}

ProtocolAssessment assess_protocol(const std::vector<NamedAttack>& attacks,
                                   const PayoffVector& payoff,
                                   const EstimatorOptions& opts) {
  return assess_protocol(attacks, VectorModel(payoff), opts);
}

bool at_least_as_fair(const ProtocolAssessment& a, const ProtocolAssessment& b) {
  return a.best_utility() <= b.best_utility() + a.best_margin() + b.best_margin();
}

}  // namespace fairsfe::rpd
