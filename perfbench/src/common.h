// Shared helpers for fsbench: clocks, order statistics, a tiny JSON writer
// for the result file, and the process's peak resident memory.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// One metric as the result file carries it.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What every fsbench mode writes to its --out file: the correctness verdict,
/// operation counts, named metrics, and human-readable report lines that
/// run.py prints before the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< failed checks, one line each
  std::vector<std::string> report;  ///< table lines for the console

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Write as one JSON object; false if the file cannot be written.
  bool write(const std::string& path) const;
};

}  // namespace perfbench
