// The benchmark's workloads, built only from the library's public setup
// factories and scenario registry. Every input is a pure function of the
// workload seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "experiments/report.h"
#include "rpd/estimator.h"
#include "rpd/payoff_model.h"

namespace perfbench {

/// One attack configuration of a batch workload.
struct Row {
  std::string name;
  fairsfe::rpd::SetupFactory factory;
  std::shared_ptr<const fairsfe::rpd::PayoffModel> model;
  /// Correctness gate on the row's estimate pooled over one pass:
  /// check(utility, margin) with margin = 3 standard errors.
  std::function<bool(double, double)> check;
  std::string claim;  ///< the gate in words, for failure messages
};

/// A batch workload's fixed run set. One request sweeps the attack family:
/// an rpd::estimate_utility call of runs_per_estimate runs for every row.
/// Every request is thus the same work, so request latency has one mode
/// instead of one per row. One pass sends every request once.
struct BatchWorkload {
  std::vector<Row> rows;
  std::size_t runs_per_estimate = 0;
  /// seeds[k][r] seeds request k's estimate of row r:
  /// Rng(seed).fork_at("request", k).fork_at("row", r).
  std::vector<std::vector<std::uint64_t>> seeds;

  [[nodiscard]] std::size_t runs_per_request() const {
    return rows.size() * runs_per_estimate;
  }
};

bool is_batch_workload(const std::string& name);

/// gk_abort or optn_lamport; throws std::invalid_argument otherwise.
BatchWorkload make_batch_workload(const std::string& name, std::uint64_t seed);

/// The request shapes daemon_mix sends, in the order of MixRequest::shape.
struct Shape {
  const char* scenario;
  std::size_t runs;   ///< Monte-Carlo runs per point
  std::size_t lanes;  ///< 64 selects the bit-sliced path where registered
};
inline constexpr Shape kShapes[] = {
    {"exp01_contract_fairness", 512, 1},
    {"exp04_reconstruction_rounds", 512, 1},
    {"exp20_bitslice", 512, 64},
};
inline constexpr std::size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

struct MixRequest {
  bool status = false;    ///< a status poll instead of an estimate
  std::size_t shape = 0;  ///< index into kShapes
  std::uint64_t seed = 0;
  bool verify = false;  ///< in the seeded sample replayed in process
};

/// The seeded request stream of one daemon_mix connection.
class MixStream {
 public:
  MixStream(std::uint64_t seed, std::size_t connection);
  MixRequest next();

 private:
  fairsfe::Rng rng_;
};

/// The NDJSON line for a request (without the trailing newline).
std::string request_line(const MixRequest& r, const std::string& id);

/// The fairbench arguments fairbenchd derives from that request line, so
/// that service::run_scenario in process answers the same question.
fairsfe::bench::Args request_args(const MixRequest& r);

}  // namespace perfbench
