// Untraced batch measurement: replay the workload's fixed run set through
// rpd::estimate_utility on one estimator thread for the requested seconds.
#include "modes.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace rpd = fairsfe::rpd;

namespace {

// Moments of one row pooled over several estimates (each estimate reports
// its mean and standard error over valid runs; both invert exactly to sums).
struct Pool {
  double sum = 0.0;
  double sum_sq = 0.0;
  double n = 0.0;

  void add(const rpd::UtilityEstimate& e) {
    const auto v = static_cast<double>(e.valid_runs);
    if (v == 0.0) return;
    sum += e.utility * v;
    sum_sq += e.std_error * e.std_error * v * (v - 1.0) + v * e.utility * e.utility;
    n += v;
  }
  [[nodiscard]] double mean() const { return n > 0.0 ? sum / n : 0.0; }
  [[nodiscard]] double margin() const {
    if (n < 2.0) return 0.0;
    const double var = (sum_sq - n * mean() * mean()) / (n - 1.0);
    return 3.0 * std::sqrt(std::max(0.0, var) / n);
  }
};

bool same_estimate(const rpd::UtilityEstimate& a, const rpd::UtilityEstimate& b) {
  return a.utility == b.utility && a.std_error == b.std_error &&
         a.valid_runs == b.valid_runs && a.run_events == b.run_events;
}

}  // namespace

rpd::UtilityEstimate estimate(const BatchWorkload& w, std::size_t row, std::uint64_t seed) {
  rpd::EstimationTarget target;
  target.factory = w.rows[row].factory;
  rpd::EstimatorOptions o;
  o.runs = w.runs_per_estimate;
  o.seed = seed;
  o.threads = 1;
  return rpd::estimate_utility(target, *w.rows[row].model, o);
}

void run_batch(const BatchWorkload& w, double seconds, Result& out) {
  const std::size_t rows = w.rows.size();
  // Untimed first pass: warms caches, gives the reference every timed pass
  // must reproduce bit for bit, and feeds the correctness gate.
  std::vector<rpd::UtilityEstimate> reference;
  std::vector<Pool> pools(rows);
  for (const auto& request : w.seeds) {
    for (std::size_t r = 0; r < rows; ++r) {
      reference.push_back(estimate(w, r, request[r]));
      pools[r].add(reference.back());
    }
  }
  out.line("%-36s %8s %8s %8s  %s", "row (pooled over one pass)", "runs", "utility", "margin",
           "gate");
  for (std::size_t r = 0; r < rows; ++r) {
    const Row& row = w.rows[r];
    const bool ok = row.check(pools[r].mean(), pools[r].margin());
    out.line("%-36s %8.0f %8.4f %8.4f  %s", row.name.c_str(), pools[r].n, pools[r].mean(),
             pools[r].margin(), ok ? "ok" : "FAIL");
    if (!ok) {
      out.fail(row.name + ": utility " + std::to_string(pools[r].mean()) + " violates " +
               row.claim);
    }
  }

  // Every pass is the same work, and interference from other tenants only
  // ever slows one down. So throughput and the median come from the fastest
  // pass. p99 needs ten samples beyond it, so it pools the kTailPasses
  // fastest passes; a median over pooled passes would fall between the
  // quiet and the busy passes' modes.
  constexpr std::size_t kTailPasses = 8;
  struct Pass {
    double seconds = 0.0;
    std::vector<double> latencies_ms;
  };
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  do {
    Pass pass;
    const auto pass_t0 = Clock::now();
    for (std::size_t k = 0; k < w.seeds.size(); ++k) {
      const auto t = Clock::now();
      for (std::size_t r = 0; r < rows; ++r) {
        const rpd::UtilityEstimate e = estimate(w, r, w.seeds[k][r]);
        out.attempted += e.runs;
        out.failed += e.round_cap_hits;
        if (!same_estimate(e, reference[k * rows + r])) {
          out.fail("request " + std::to_string(k) + ", " + w.rows[r].name +
                   ": not reproducible across passes");
        }
      }
      pass.latencies_ms.push_back(seconds_since(t) * 1e3);
    }
    pass.seconds = seconds_since(pass_t0);
    passes.push_back(std::move(pass));
  } while (seconds_since(t0) < seconds);

  std::sort(passes.begin(), passes.end(),
            [](const Pass& a, const Pass& b) { return a.seconds < b.seconds; });
  std::vector<double> latencies_ms;
  for (std::size_t i = 0; i < std::min(kTailPasses, passes.size()); ++i) {
    latencies_ms.insert(latencies_ms.end(), passes[i].latencies_ms.begin(),
                        passes[i].latencies_ms.end());
  }
  const double best_s = passes.front().seconds;
  const auto requests = static_cast<double>(w.seeds.size());
  const double p99 = quantile(latencies_ms, 0.99);
  std::size_t beyond = 0;
  for (const double l : latencies_ms) beyond += l > p99 ? 1 : 0;
  out.metric("runs_per_s", requests * static_cast<double>(w.runs_per_request()) / best_s,
             "runs/s");
  out.metric("req_per_s", requests / best_s, "req/s");
  out.metric("req_p50_ms", median(passes.front().latencies_ms), "ms");
  out.metric("req_p99_ms", p99, "ms");
  out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  out.line("%zu timed passes of %zu requests x %zu runs in %.2f s (fastest %.3f s, slowest "
           "%.3f s); p99 over %zu samples, %zu beyond it",
           passes.size(), w.seeds.size(), w.runs_per_request(), seconds_since(t0), best_s,
           passes.back().seconds, latencies_ms.size(), beyond);
  if (beyond < 10) out.line("warning: fewer than 10 samples beyond p99");
}

}  // namespace perfbench
