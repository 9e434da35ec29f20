// The shared scenario runner: one code path for `fairbench` one-shots and
// `fairbenchd` requests.
//
// run_scenario() is exactly the per-scenario block fairbench's main loop
// used to inline — Reporter construction from bench::Args, amortized offline
// preprocessing batch, spec body, verdicts, JSON rendering. The daemon calls
// the same function with the same Args it would pass on a CLI, which is what
// makes "daemon answer == one-shot answer" true by construction instead of
// by parallel maintenance of two drivers.
//
// The runner also hosts the daemon's cross-request cache of offline
// CorrelatedRandomness batches: a batch is a pure function of
// (mode, parties, triples, rots, seed), so two requests with the same shape
// deterministically need byte-identical material and can share one
// generation. (The compiled circuit-plan cache is already process-wide —
// mpc::CompiledPlan lives behind a global cache since PR 2 — so the daemon
// shares it across requests with no work here.)
#pragma once

#include <functional>
#include <string>

#include "experiments/report.h"

namespace fairsfe::experiments {
struct ScenarioSpec;
}  // namespace fairsfe::experiments

namespace fairsfe::service {

struct ScenarioRunResult {
  std::string json;    ///< bench::Reporter::json_object() of the run
  int deviations = 0;  ///< failed paper-claim checks
};

/// Progress sink: invoked after each completed table row with
/// (row_index, row_name). May be called from the estimating thread.
using RowSink = std::function<void(std::size_t, const std::string&)>;

/// Run one registered scenario under `args` (runs/threads/seed/preproc/
/// lanes/target_ci/quiet all honored; args.json_path is ignored —
/// the caller owns the sink). `cache_batches` turns on the cross-request
/// offline-batch cache (the daemon sets it; one-shot fairbench does not need
/// it and measures a fresh offline phase instead).
ScenarioRunResult run_scenario(const experiments::ScenarioSpec& spec,
                               const bench::Args& args,
                               const RowSink& row_sink = {},
                               bool cache_batches = false);

}  // namespace fairsfe::service
