// fsbench's modes, one per source file.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// One untraced estimate of row `row` of the fixed run set (batch.cpp).
fairsfe::rpd::UtilityEstimate estimate(const BatchWorkload& w, std::size_t row,
                                       std::uint64_t seed);

/// Untraced batch workload: runs_per_s, req_*, peak_rss_mb (batch.cpp).
void run_batch(const BatchWorkload& w, double seconds, Result& out);

/// Where the traced replay's inputs come from.
struct TraceInput {
  std::string workload;
  std::uint64_t seed = 0;
  std::string spans_path;  ///< span dump destination
  std::string replay_cmd;  ///< recorded in the dump's header
};

/// Traced replay of the workload's scalar estimator loop with timing
/// decorators, guarded against rpd::estimate_utility (trace.cpp).
void run_trace(const TraceInput& in, Result& out);

/// Direct calls into crypto and mpc at the sizes the workloads use
/// (probes.cpp).
void run_crypto_probes(std::uint64_t seed, Result& out);
void run_mpc_probes(std::uint64_t seed, Result& out);

/// Closed-loop daemon_mix client against a running fairbenchd: req_*,
/// runs_per_s, and the in-process check of a seeded reply sample
/// (client.cpp).
void run_client(const std::string& socket_path, std::uint64_t seed, double seconds,
                Result& out);

/// service.run_scenario_ms per request shape and service.overhead_ms: a
/// fixed request list sent to the daemon, then run in process (client.cpp).
void run_service_probe(const std::string& socket_path, std::uint64_t seed, Result& out);

}  // namespace perfbench
