#include "experiments/report.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "experiments/registry.h"
#include "util/bitmat.h"

namespace fairsfe::bench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      a.threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) {
        a.runs = static_cast<std::size_t>(v);
        a.runs_set = true;
      }
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      a.filter = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      a.baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (*end != '\0' || v <= 0 || !rpd::valid_lanes(static_cast<std::size_t>(v))) {
        std::fprintf(stderr, "%s: --lanes must be 1 or %zu, got '%s'\n", argv[0],
                     util::kLaneWidth, argv[i]);
        std::exit(2);
      }
      a.lanes = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--target-ci") == 0 && i + 1 < argc) {
      const double v = std::strtod(argv[++i], nullptr);
      if (v > 0.0) a.target_ci = v;
    } else if (std::strcmp(argv[i], "--preproc") == 0) {
      // Only a recognized mode word is consumed: perf_protocols uses a bare
      // `--preproc` as its mode selector, so `--preproc --json x` must not
      // eat `--json` as the mode.
      if (i + 1 < argc && mpc::preproc::parse_preproc_mode(argv[i + 1])) {
        a.preproc = *mpc::preproc::parse_preproc_mode(argv[++i]);
      } else {
        a.passthrough.emplace_back(argv[i]);
      }
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      // Like --preproc: only a recognized transport word is consumed.
      if (i + 1 < argc && sim::parse_transport_kind(argv[i + 1])) {
        a.transport = *sim::parse_transport_kind(argv[++i]);
      } else {
        a.passthrough.emplace_back(argv[i]);
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      a.seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      a.quiet = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      a.list = true;
    } else if (argv[i][0] != '-') {
      const long v = std::strtol(argv[i], nullptr, 10);
      if (v > 0) {
        a.runs = static_cast<std::size_t>(v);
        a.runs_set = true;
      } else {
        a.passthrough.emplace_back(argv[i]);
      }
    } else {
      a.passthrough.emplace_back(argv[i]);
    }
  }
  return a;
}

Reporter::Reporter(int argc, char** argv, std::size_t default_runs)
    : Reporter(parse_args(argc, argv), default_runs) {}

Reporter::Reporter(const Args& args, std::size_t default_runs)
    : runs_(args.runs_or(default_runs)),
      threads_(args.threads),
      preproc_(args.preproc),
      lanes_(args.lanes),
      target_ci_(args.target_ci),
      transport_(args.transport),
      seed_override_(args.seed),
      quiet_(args.quiet),
      json_path_(args.json_path) {}

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
  if (!json_path_.empty()) write_json();
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
  // the schema of inline runs — and thus every historical BENCH_*.json —
  // stays byte-stable.
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
  // Same byte-stability pattern: the key appears only off the default path.
  if (transport_ != sim::TransportKind::kInProc) {
    appendf(out, ",\n  \"transport\": \"%s\"",
            std::string(sim::to_string(transport_)).c_str());
  }
  appendf(out, "\n}");
  return out;
}

void Reporter::write_json() {
  std::FILE* f = std::fopen(json_path_.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", json_path_.c_str());
    return;
  }
  const std::string obj = json_object();
  std::fwrite(obj.data(), 1, obj.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  if (!quiet_) std::printf("json report written to %s\n", json_path_.c_str());
}

}  // namespace fairsfe::bench
