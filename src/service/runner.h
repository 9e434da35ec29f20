// The shared scenario runner: one code path for `fairbench` one-shots and
// `fairbenchd` requests.
//
// run_scenario() is exactly the per-scenario block fairbench's main loop
// used to inline — Reporter construction from bench::Args, spec body,
// verdicts, JSON rendering. The daemon calls the same function with the same
// Args it would pass on a CLI, which is what makes "daemon answer ==
// one-shot answer" true by construction instead of by parallel maintenance
// of two drivers. (The compiled circuit-plan cache is process-wide —
// mpc::CompiledPlan lives behind a global cache — so the daemon shares it
// across requests with no work here.)
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

/// Run one registered scenario under `args` (runs/threads/seed/lanes/
/// target_ci/quiet all honored; args.json_path is ignored — the caller owns
/// the sink).
ScenarioRunResult run_scenario(const experiments::ScenarioSpec& spec,
                               const bench::Args& args,
                               const RowSink& row_sink = {});

}  // namespace fairsfe::service
