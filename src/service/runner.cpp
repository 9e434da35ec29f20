#include "service/runner.h"

#include "experiments/registry.h"

namespace fairsfe::service {

ScenarioRunResult run_scenario(const experiments::ScenarioSpec& spec,
                               const bench::Args& args, const RowSink& row_sink) {
  bench::Reporter rep(args, spec.default_runs);
  if (row_sink) rep.set_row_sink(row_sink);
  rep.begin(spec);
  experiments::ScenarioContext ctx{spec, rep};
  spec.run(ctx);
  rep.finish();
  return ScenarioRunResult{rep.json_object(), rep.deviations()};
}

}  // namespace fairsfe::service
