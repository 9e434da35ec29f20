#include "experiments/report.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "experiments/registry.h"
#include "util/bitmat.h"

namespace fairsfe::bench {

std::optional<std::uint64_t> parse_u64(const char* v) {
  if (!std::isdigit(static_cast<unsigned char>(v[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

namespace {

[[noreturn]] void reject(const char* prog, const char* flag, const std::string& want,
                         const char* got) {
  std::fprintf(stderr, "%s: %s must be %s, got '%s'\n", prog, flag, want.c_str(), got);
  std::exit(2);
}

std::size_t parse_runs(const char* prog, const char* v) {
  const auto n = parse_u64(v);
  if (!n || *n == 0 || *n > rpd::kMaxRuns) {
    reject(prog, "--runs", "an integer in [1, " + std::to_string(rpd::kMaxRuns) + "]", v);
  }
  return static_cast<std::size_t>(*n);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto n = parse_u64(argv[++i]);
      if (!n || *n > rpd::kMaxThreads) {
        reject(argv[0], "--threads",
               "an integer in [0, " + std::to_string(rpd::kMaxThreads) + "]", argv[i]);
      }
      a.threads = static_cast<std::size_t>(*n);
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      a.runs = parse_runs(argv[0], argv[++i]);
      a.runs_set = true;
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      a.filter = argv[++i];
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      const auto n = parse_u64(argv[++i]);
      if (!n || !rpd::valid_lanes(static_cast<std::size_t>(*n))) {
        reject(argv[0], "--lanes", "1 or " + std::to_string(util::kLaneWidth), argv[i]);
      }
      a.lanes = static_cast<std::size_t>(*n);
    } else if (std::strcmp(argv[i], "--target-ci") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      char* end = nullptr;
      const double h = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(h) || h < 0.0) {
        reject(argv[0], "--target-ci", "a non-negative number (0 = off)", v);
      }
      a.target_ci = h;
    } else if (std::strcmp(argv[i], "--preproc") == 0) {
      const char* v = i + 1 < argc ? argv[++i] : "";
      const auto mode = mpc::preproc::parse_preproc_mode(v);
      if (!mode) reject(argv[0], "--preproc", "inline, offline_ideal or offline_ot", v);
      a.preproc = *mode;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto n = parse_u64(argv[++i]);
      if (!n) reject(argv[0], "--seed", "an integer in [0, 2^64)", argv[i]);
      a.seed = *n;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      a.quiet = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      a.list = true;
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      a.runs = parse_runs(argv[0], argv[i]);
      a.runs_set = true;
    } else {
      a.passthrough.emplace_back(argv[i]);
    }
  }
  return a;
}

Reporter::Reporter(const Args& args, std::size_t default_runs)
    : runs_(args.runs_or(default_runs)),
      threads_(args.threads),
      preproc_(args.preproc),
      lanes_(args.lanes),
      target_ci_(args.target_ci),
      seed_override_(args.seed),
      quiet_(args.quiet) {}

void Reporter::offline_batch(const std::string& provider, std::size_t triples,
                             double seconds) {
  if (!quiet_) {
    std::printf("offline batch [%s]: %zu triples in %.4fs (%.0f triples/s)\n",
                provider.c_str(), triples, seconds,
                seconds > 0 ? static_cast<double>(triples) / seconds : 0.0);
  }
  offline_.push_back(OfflineBatch{provider, triples, seconds});
}

void Reporter::title(const std::string& id, const std::string& claim) {
  experiment_ = id;
  claim_ = claim;
  if (!quiet_) std::printf("\n=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

void Reporter::begin(const experiments::ScenarioSpec& spec) {
  title(spec.title, spec.claim);
}

void Reporter::gamma(const rpd::PayoffVector& g) {
  gamma_ = g.to_string();
  if (!quiet_) std::printf("gamma = %s, runs/point = %zu\n\n", gamma_.c_str(), runs_);
}

void Reporter::row_header() {
  if (quiet_) return;
  std::printf("%-28s %9s %8s   %5s %5s %5s %5s   %s\n", "configuration", "utility",
              "(+/-3SE)", "E00", "E01", "E10", "E11", "paper");
  std::printf("%-28s %9s %8s   %5s %5s %5s %5s   %s\n", "-------------", "-------",
              "--------", "---", "---", "---", "---", "-----");
}

void Reporter::row(const std::string& name, const rpd::UtilityEstimate& est,
                   const std::string& paper) {
  if (!quiet_) {
    std::printf("%-28s %9.4f %8.4f   %5.2f %5.2f %5.2f %5.2f   %s\n", name.c_str(),
                est.utility, est.margin(), est.event_freq[0], est.event_freq[1],
                est.event_freq[2], est.event_freq[3], paper.c_str());
    if (est.stopped_early) {
      std::printf("  (sequential stop: %zu of %zu runs, ci_halfwidth %.5f)\n",
                  est.runs, est.requested_runs, est.ci_halfwidth());
    }
  }
  rows_.push_back(Row{name, est.utility, est.std_error, est.margin(), est.event_freq,
                      est.runs, est.wall_seconds, est.runs_per_sec(), est.lanes,
                      est.valid_runs, est.runs, est.ci_halfwidth(), paper});
  if (row_sink_) row_sink_(rows_.size() - 1, name);
}

void Reporter::check(bool ok, const std::string& what) {
  if (!quiet_) std::printf("  [%s] %s\n", ok ? "PASS" : "DEVIATION", what.c_str());
  checks_.push_back(Check{ok, what});
  if (!ok) failures_++;
}

int Reporter::finish() {
  if (!quiet_) {
    std::printf("\n%s (%d deviation%s)\n",
                failures_ == 0 ? "ALL CHECKS PASSED" : "DEVIATIONS", failures_,
                failures_ == 1 ? "" : "s");
  }
  return 0;
}

std::string Reporter::json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
void appendf(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // Rare long row/claim: retry with an exact-size heap buffer.
  std::unique_ptr<char[]> big(new char[static_cast<std::size_t>(n) + 1]);
  va_start(ap, fmt);
  std::vsnprintf(big.get(), static_cast<std::size_t>(n) + 1, fmt, ap);
  va_end(ap);
  out.append(big.get(), static_cast<std::size_t>(n));
}
}  // namespace

std::string Reporter::json_object() const {
  std::string out;
  appendf(out, "{\n  \"experiment\": \"%s\",\n  \"claim\": \"%s\",\n",
          json_escape(experiment_).c_str(), json_escape(claim_).c_str());
  if (gamma_.empty()) {
    appendf(out, "  \"gamma\": null,\n");
  } else {
    appendf(out, "  \"gamma\": \"%s\",\n", json_escape(gamma_).c_str());
  }
  appendf(out, "  \"runs_per_point\": %zu,\n  \"threads\": %zu,\n  \"rows\": [", runs_,
          threads_);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    appendf(out,
            "%s\n    {\"name\": \"%s\", \"utility\": %.17g, \"std_error\": %.17g, "
            "\"margin\": %.17g, \"event_freq\": [%.17g, %.17g, %.17g, %.17g], "
            "\"runs\": %zu, \"wall_seconds\": %.6g, \"runs_per_sec\": %.6g, "
            "\"lanes\": %zu, \"valid_runs\": %zu, \"stopped_at\": %zu, "
            "\"ci_halfwidth\": %.17g, \"paper\": \"%s\"}",
            i == 0 ? "" : ",", json_escape(r.name).c_str(), r.utility, r.std_error,
            r.margin, r.event_freq[0], r.event_freq[1], r.event_freq[2],
            r.event_freq[3], r.runs, r.wall_seconds, r.runs_per_sec, r.lanes,
            r.valid_runs, r.stopped_at, r.ci_halfwidth,
            json_escape(r.paper).c_str());
  }
  appendf(out, "\n  ],\n  \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    appendf(out, "%s\n    {\"ok\": %s, \"what\": \"%s\"}", i == 0 ? "" : ",",
            checks_[i].ok ? "true" : "false", json_escape(checks_[i].what).c_str());
  }
  appendf(out, "\n  ],\n  \"deviations\": %d", failures_);
  // Emitted only under an offline mode (or when a batch was recorded), so
  // the schema of inline runs — and thus every historical report — stays
  // byte-stable.
  if (mpc::preproc::is_offline(preproc_) || !offline_.empty()) {
    appendf(out, ",\n  \"preproc\": {\"mode\": \"%s\", \"offline\": [",
            std::string(mpc::preproc::to_string(preproc_)).c_str());
    for (std::size_t i = 0; i < offline_.size(); ++i) {
      appendf(out,
              "%s\n    {\"provider\": \"%s\", \"triples\": %zu, \"seconds\": %.6g}",
              i == 0 ? "" : ",", json_escape(offline_[i].provider).c_str(),
              offline_[i].triples, offline_[i].seconds);
    }
    appendf(out, "%s]}", offline_.empty() ? "" : "\n  ");
  }
  appendf(out, "\n}");
  return out;
}

}  // namespace fairsfe::bench
