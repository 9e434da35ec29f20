#include "service/runner.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "crypto/rng.h"
#include "experiments/registry.h"
#include "mpc/preproc/provider.h"

namespace fairsfe::service {

namespace {

/// Cross-request cache of offline batches. Sound because a batch is a pure
/// function of the key: every field that influences generate_batch's output
/// is in it. `seconds` keeps the one-time generation cost so cache hits
/// report the amortized batch's real cost instead of a fake 0.
struct CachedBatch {
  std::shared_ptr<const mpc::preproc::CorrelatedRandomness> batch;
  double seconds = 0.0;
};
using BatchKey =
    std::tuple<int, std::size_t, std::size_t, std::size_t, std::uint64_t>;

std::mutex g_batch_mu;
std::map<BatchKey, CachedBatch>& batch_cache() {
  static std::map<BatchKey, CachedBatch> cache;
  return cache;
}

CachedBatch offline_batch_for(mpc::preproc::PreprocMode mode,
                              const mpc::preproc::PreprocRequest& req,
                              std::uint64_t seed, bool cache) {
  const BatchKey key{static_cast<int>(mode), req.parties, req.triples, req.rots,
                     seed};
  if (cache) {
    std::lock_guard<std::mutex> lock(g_batch_mu);
    auto it = batch_cache().find(key);
    if (it != batch_cache().end()) return it->second;
  }
  Rng batch_rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  CachedBatch entry;
  entry.batch = mpc::preproc::generate_batch(mode, req, batch_rng);
  entry.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cache) {
    std::lock_guard<std::mutex> lock(g_batch_mu);
    // Bounded: the daemon's request shapes are few; drop everything rather
    // than track recency if a hostile mix tries to grow it.
    if (batch_cache().size() >= 16) batch_cache().clear();
    batch_cache().emplace(key, entry);
  }
  return entry;
}

}  // namespace

ScenarioRunResult run_scenario(const experiments::ScenarioSpec& spec,
                               const bench::Args& args, const RowSink& row_sink,
                               bool cache_batches) {
  bench::Reporter rep(args, spec.default_runs);
  if (row_sink) rep.set_row_sink(row_sink);
  rep.begin(spec);
  experiments::ScenarioContext ctx{spec, rep};
  ctx.preproc = args.preproc;
  if (mpc::preproc::is_offline(args.preproc) && spec.preproc) {
    // One amortized offline phase for the scenario's whole Monte-Carlo
    // sweep. Seeded from the effective base seed so the batch — like every
    // run — is a pure function of the requested configuration.
    const experiments::PreprocBudget& budget = *spec.preproc;
    mpc::preproc::PreprocRequest req;
    req.parties = budget.parties;
    req.triples = rep.runs() * budget.triples_per_run;
    req.rots = rep.runs() * budget.rots_per_run;
    const CachedBatch entry = offline_batch_for(
        args.preproc, req, rep.base_seed_or(spec.base_seed), cache_batches);
    ctx.batch = entry.batch;
    rep.offline_batch(std::string(mpc::preproc::to_string(args.preproc)),
                      req.triples, entry.seconds);
  }
  spec.run(ctx);
  rep.finish();
  return ScenarioRunResult{rep.json_object(), rep.deviations()};
}

}  // namespace fairsfe::service
