// E18 — fairness under unreliable channels: how much adversarial utility
// does a faulty network donate to the attacker?
//
// The paper's Theorem 3 bound u_A(Opt2SFE, A) <= (g10 + g11)/2 assumes
// guaranteed delivery. Here the same lock-abort adversary attacks over a
// channel that drops each party-to-party message with probability p (the
// adversary taps the wire pre-fault, so its view never degrades), and the
// j-bit is strict: honest parties must output the *true* y, a default-input
// fallback no longer counts.
//
// Event algebra for the drop sweep (one corrupted party, î uniform):
//   * î = corrupted (prob 1/2): the adversary always sees the honest opening
//     on the wire, locks y, and aborts -> E10, independent of p.
//   * î = honest (prob 1/2): the corrupted opening must actually arrive.
//     Delivered (prob 1-p) -> both learn y -> E11. Dropped (prob p) -> the
//     honest party times out into its default evaluation and the adversary
//     never sees the closing opening -> E00.
// So u(p) = g10/2 + ((1-p) g11 + p g00)/2 = (g10+g11)/2 + p (g00 - g11)/2.
// That closed form lives in this scenario's `bound` callback (x = p), so the
// bench rows, the registry consumers, and the tests all share one formula.
//
// For gamma in Gamma+fair (g00 <= g11) drops can only *help* fairness — the
// bound is robust. The donation appears exactly for the "spiteful" vectors
// in Gamma_fair \ Gamma+fair (g00 > g11): adversarial utility rises
// monotonically above (g10+g11)/2 = 0.75 with slope p (g00-g11)/2.
// All sweep points share one seed (common random numbers): the drop draws
// nest across p, so the measured spite curve is monotone run-for-run, not
// just in expectation.
#include <cmath>
#include <cstdio>
#include <string>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "experiments/scenarios/scenarios.h"
#include "experiments/setups.h"

namespace fairsfe::experiments {
namespace {

constexpr double kDropRates[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30};

rpd::UtilityEstimate point(const bench::Reporter& rep, const rpd::SetupFactory& factory,
                           const rpd::PayoffVector& gamma, std::uint64_t seed, double p) {
  rpd::EstimatorOptions o = rep.opts(seed);
  if (p > 0.0) o.fault = sim::fault::FaultPlan::uniform_drop(p);
  return rpd::estimate_utility(factory, gamma, o);
}

std::string pct(double p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p=%.2f", p);
  return buf;
}

void run(ScenarioContext& ctx) {
  bench::Reporter& rep = ctx.rep;

  std::size_t total_cap_hits = 0;
  const auto sweep = [&](const std::string& prefix, const rpd::PayoffVector& gamma,
                         std::uint64_t seed) {
    const double bound = gamma.two_party_opt_bound();
    rep.note("--- %s sweep: lock-abort(p1) on Opt2SFE, bound (g10+g11)/2 = %.3f ---\n",
             prefix.c_str(), bound);
    rep.gamma(gamma);
    rep.row_header();
    std::vector<rpd::UtilityEstimate> curve;
    for (const double p : kDropRates) {
      const auto est = point(rep, opt2_lock_abort_strict(0), gamma, seed, p);
      total_cap_hits += est.round_cap_hits;
      char paper[64];
      std::snprintf(paper, sizeof(paper), "u(p) = %.4f", ctx.spec.bound(gamma, p));
      rep.row(prefix + ":" + pct(p), est, paper);
      curve.push_back(est);
    }
    rep.note("  fault stats @ p=0.30: %s\n",
             curve.back().fault_stats.to_string().c_str());
    rep.check(std::abs(curve.front().utility - bound) <= curve.front().margin() + 0.02,
              prefix + ": p=0 reproduces the reliable-network optimum " +
                  std::to_string(bound));
    rep.check(curve.back().fault_stats.dropped > 0 &&
                  curve.back().fault_stats.timeouts_fired > 0,
              prefix + ": p=0.30 actually dropped messages and fired timeouts");
    return curve;
  };

  // Gamma+fair: g00 <= g11, so the drop term p(g00-g11)/2 <= 0 — an
  // unreliable network cannot breach the Theorem 3 bound.
  const rpd::PayoffVector standard = rpd::PayoffVector::standard();
  const auto std_curve = sweep("std(0.25,0,1,0.5)", standard, 1800);
  for (std::size_t i = 0; i < std_curve.size(); ++i) {
    if (std_curve[i].utility > standard.two_party_opt_bound() + std_curve[i].margin() + 0.02) {
      rep.check(false, "std: " + pct(kDropRates[i]) + " exceeds the Theorem 3 bound");
    }
  }
  rep.check(true, "std: every drop rate respects the Theorem 3 bound 0.75");
  rep.note("\n");

  // Gamma_fair \ Gamma+fair: a spiteful g00 > g11 (the adversary prefers
  // nobody-learns over everybody-learns). Drops now donate utility: the
  // measured curve must rise monotonically from 0.75. Common random numbers
  // (shared seed) make the monotonicity exact, not just statistical.
  const rpd::PayoffVector spite = rpd::payoff::spiteful();
  const auto spite_curve = sweep("spite(0.6,0,1,0.5)", spite, 1801);
  bool monotone = true;
  for (std::size_t i = 1; i < spite_curve.size(); ++i) {
    if (spite_curve[i].utility < spite_curve[i - 1].utility - 1e-12) monotone = false;
  }
  rep.check(monotone, "spite: utility rises monotonically in p (coupled runs)");
  // The coupled rise u(0.30) - u(0) estimates 0.30 (g00-g11)/2 = 0.015 with
  // only the binomial noise of the drop draws (the i-hat / input noise is
  // shared between the two points and cancels).
  const double rise = spite_curve.back().utility - spite_curve.front().utility;
  rep.check(rise > 0.008 && rise < 0.025,
            "spite: p=0.30 donates ~p(g00-g11)/2 = 0.015 utility above the optimum");
  rep.note("\n");

  // Contract protocols under the same drop sweep (standard gamma). Pi1's
  // best attack corrupts the *second* opener (E01's sup = g10 = 1). Under a
  // Gamma+fair vector, drops can only pull either protocol's utility down
  // toward g00 — a stalled honest party never sends the opening the
  // adversary is waiting to lock — never above the reliable-network sup.
  rep.note("--- contract protocols, standard gamma ---\n");
  rep.row_header();
  for (const double p : {0.0, 0.15, 0.30}) {
    const auto est = point(rep, contract_attack_strict(fair::ContractVariant::kPi1, 1),
                           standard, 1810, p);
    total_cap_hits += est.round_cap_hits;
    rep.row("pi1:" + pct(p), est, p == 0.0 ? "= 1.000 (g10)" : "<= 1.000");
    if (p == 0.0) {
      rep.check(std::abs(est.utility - standard.g10) <= est.margin() + 0.02,
                "pi1: p=0 reproduces the E01 sup g10 = 1 (corrupt the second opener)");
    } else {
      rep.check(est.utility <= standard.g10 + est.margin() + 0.02,
                "pi1: " + pct(p) + " never exceeds the reliable-network sup");
    }
  }
  for (const double p : {0.0, 0.15, 0.30}) {
    const auto est = point(rep, contract_attack_strict(fair::ContractVariant::kPi2, 0),
                           standard, 1811, p);
    total_cap_hits += est.round_cap_hits;
    rep.row("pi2:" + pct(p), est, p == 0.0 ? "= 0.750" : "<= 0.750");
    if (p == 0.0) {
      rep.check(std::abs(est.utility - 0.75) <= est.margin() + 0.02,
                "pi2: p=0 reproduces the 0.75 baseline");
    } else {
      rep.check(est.utility <= 0.75 + est.margin() + 0.02,
                "pi2: " + pct(p) + " never exceeds the reliable-network sup");
    }
  }
  rep.note("\n");

  // Crash schedules against Opt2SFE (standard gamma, no message faults).
  // A permanent crash of the honest party denies *both* sides the output
  // (E00): the adversary taps the wire but the closing opening is never
  // sent. A one-round outage before reconstruction is absorbed entirely —
  // the missed round only stalls the activation-driven parties.
  rep.note("--- crash schedules: honest party p2, Opt2SFE, standard gamma ---\n");
  rep.row_header();
  {
    rpd::EstimatorOptions o = rep.opts(1820);
    o.fault = sim::fault::FaultPlan{}.with_crash(1, /*at_round=*/2);
    const auto est = rpd::estimate_utility(opt2_lock_abort_strict(0), standard, o);
    total_cap_hits += est.round_cap_hits;
    rep.row("crash:p2@r2,no-restart", est, "= g00 = 0.250");
    rep.note("  fault stats: %s\n", est.fault_stats.to_string().c_str());
    rep.check(est.fault_stats.crashes == est.runs && est.fault_stats.restarts == 0,
              "crash: exactly one crash per run, no restarts");
    rep.check(std::abs(est.utility - standard.g00) <= est.margin() + 0.02,
              "crash: permanent honest crash denies both sides the output (E00)");
  }
  {
    rpd::EstimatorOptions o = rep.opts(1821);
    o.fault = sim::fault::FaultPlan{}.with_crash(1, /*at_round=*/1, /*restart_round=*/2);
    const auto est = rpd::estimate_utility(opt2_lock_abort_strict(0), standard, o);
    total_cap_hits += est.round_cap_hits;
    rep.row("crash:p2@r1,restart@r2", est, "= 0.750 (absorbed)");
    rep.note("  fault stats: %s\n", est.fault_stats.to_string().c_str());
    rep.check(est.fault_stats.crashes == est.runs && est.fault_stats.restarts == est.runs,
              "crash-restart: one crash and one restart per run");
    rep.check(std::abs(est.utility - 0.75) <= est.margin() + 0.02,
              "crash-restart: a one-round outage is absorbed, utility back at 0.75");
  }

  rep.check(total_cap_hits == 0,
            "no run hit the round cap (estimator excluded 0 runs)");
}

}  // namespace

void register_exp18(Registry& r) {
  ScenarioSpec s;
  s.id = "exp18_fault_tolerance";
  s.title = "E18: fault tolerance — utility under drop-rate and crash schedules";
  s.claim =
      "Claim: with strict correctness, u(p) = (g10+g11)/2 + p(g00-g11)/2 for "
      "Opt2SFE under lock-abort; drops cannot push gamma+fair vectors past the "
      "Theorem 3 bound, and donate utility exactly when g00 > g11.";
  s.protocol = "Opt2SFE / Pi1 / Pi2 over lossy channels";
  s.attack = "strict lock-abort under FaultPlan drop/crash schedules";
  s.tags = {"smoke", "two-party", "fault"};
  s.gamma = rpd::PayoffVector::standard();
  s.default_runs = 2000;
  s.base_seed = 1800;
  s.fault = sim::fault::FaultPlan::uniform_drop(0.15);
  // x = p (per-message drop rate): the closed-form drop curve derived above.
  s.bound = [](const rpd::PayoffVector& g, double p) {
    return g.two_party_opt_bound() + p * (g.g00 - g.g11) / 2.0;
  };
  s.bound_note = "u(p) = (g10+g11)/2 + p(g00-g11)/2";
  s.attacks = {{"lock-abort strict (corrupt p1)", opt2_lock_abort_strict(0)}};
  s.run = run;
  r.add(std::move(s));
}

}  // namespace fairsfe::experiments
