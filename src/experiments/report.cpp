#include "experiments/report.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "experiments/registry.h"
#include "util/bitmat.h"

namespace fairsfe::bench {

namespace {

/// Strict unsigned decimal: digits only (no sign, no blanks), no overflow.
std::optional<std::uint64_t> parse_u64(const char* v) {
  if (!std::isdigit(static_cast<unsigned char>(v[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

std::string integer_in(std::uint64_t max) {
  return "must be an integer in [0, " + std::to_string(max) + "]";
}

std::uint64_t u64_of(const FieldValue& v) { return std::get<std::uint64_t>(v); }

std::optional<FieldValue> decode_text(RequestField::Kind kind, const char* text) {
  if (kind == RequestField::Kind::kU64) return parse_u64(text);
  char* end = nullptr;
  const double d = std::strtod(text, &end);
  if (end == text || *end != '\0') return std::nullopt;
  return d;
}

[[noreturn]] void reject(const char* prog, std::string_view flag, const std::string& want,
                         const char* got) {
  std::fprintf(stderr, "%s: %.*s %s, got '%s'\n", prog, static_cast<int>(flag.size()),
               flag.data(), want.c_str(), got);
  std::exit(2);
}

}  // namespace

const std::vector<RequestField>& request_fields() {
  using Kind = RequestField::Kind;
  static const std::vector<RequestField> fields = {
      {"runs", "--runs", Kind::kU64,
       "must be a positive integer no larger than " + std::to_string(rpd::kMaxRuns),
       [](const FieldValue& v) { return u64_of(v) >= 1 && u64_of(v) <= rpd::kMaxRuns; },
       [](Args& a, const FieldValue& v) {
         a.runs = static_cast<std::size_t>(u64_of(v));
         a.runs_set = true;
       }},
      {"seed", "--seed", Kind::kU64, "must be an integer in [0, 2^64)",
       [](const FieldValue&) { return true; },
       [](Args& a, const FieldValue& v) { a.seed = u64_of(v); }},
      {"threads", "--threads", Kind::kU64, integer_in(rpd::kMaxThreads),
       [](const FieldValue& v) { return u64_of(v) <= rpd::kMaxThreads; },
       [](Args& a, const FieldValue& v) { a.threads = static_cast<std::size_t>(u64_of(v)); }},
      {"lanes", "--lanes", Kind::kU64, "must be 1 or " + std::to_string(util::kLaneWidth),
       [](const FieldValue& v) { return rpd::valid_lanes(static_cast<std::size_t>(u64_of(v))); },
       [](Args& a, const FieldValue& v) { a.lanes = static_cast<std::size_t>(u64_of(v)); }},
      {"target_ci", "--target-ci", Kind::kNumber,
       "must be a finite non-negative number (0 = off)",
       [](const FieldValue& v) {
         const double h = std::get<double>(v);
         return std::isfinite(h) && h >= 0.0;
       },
       [](Args& a, const FieldValue& v) { a.target_ci = std::get<double>(v); }},
  };
  return fields;
}

const RequestField* find_field(std::string_view key) {
  for (const RequestField& f : request_fields()) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::optional<std::string> apply_field(const RequestField& field,
                                       const std::optional<FieldValue>& value,
                                       Args& args) {
  if (!value || !field.check(*value)) return field.want;
  field.set(args, *value);
  return std::nullopt;
}

void apply_flag(const char* prog, std::string_view flag, const RequestField& field,
                const char* text, Args& args) {
  if (const auto error = apply_field(field, decode_text(field.kind, text), args)) {
    reject(prog, flag, *error, text);
  }
}

std::uint64_t parse_bounded(const char* prog, std::string_view flag, const char* text,
                            std::uint64_t max) {
  const auto n = parse_u64(text);
  if (!n || *n > max) reject(prog, flag, integer_in(max), text);
  return *n;
}

Args parse_args(int argc, char** argv) {
  const std::vector<RequestField>& fields = request_fields();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto field = std::find_if(fields.begin(), fields.end(),
                                    [arg](const RequestField& f) { return f.flag == arg; });
    if (field != fields.end()) {
      apply_flag(argv[0], arg, *field, i + 1 < argc ? argv[++i] : "", a);
    } else if (arg == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (arg == "--filter" && i + 1 < argc) {
      a.filter = argv[++i];
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--list") {
      a.list = true;
    } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      apply_flag(argv[0], "--runs", *find_field("runs"), argv[i], a);
    } else {
      a.passthrough.emplace_back(argv[i]);
    }
  }
  return a;
}

Reporter::Reporter(const Args& args, std::size_t default_runs)
    : args_(args), runs_(args.runs_set ? args.runs : default_runs) {}

void Reporter::offline_batch(const std::string& provider, std::size_t triples,
                             double seconds) {
  if (!args_.quiet) {
    std::printf("offline batch [%s]: %zu triples in %.4fs (%.0f triples/s)\n",
                provider.c_str(), triples, seconds,
                seconds > 0 ? static_cast<double>(triples) / seconds : 0.0);
  }
  offline_.push_back(OfflineBatch{provider, triples, seconds});
}

void Reporter::title(const std::string& id, const std::string& claim) {
  experiment_ = id;
  claim_ = claim;
  if (!args_.quiet) std::printf("\n=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

void Reporter::begin(const experiments::ScenarioSpec& spec) {
  title(spec.title, spec.claim);
}

void Reporter::note(const char* fmt, ...) {
  if (args_.quiet) return;
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
}

void Reporter::gamma(const rpd::PayoffVector& g) {
  gamma_ = g.to_string();
  if (!args_.quiet) std::printf("gamma = %s, runs/point = %zu\n\n", gamma_.c_str(), runs_);
}

void Reporter::row_header() {
  if (args_.quiet) return;
  std::printf("%-28s %9s %8s   %5s %5s %5s %5s   %s\n", "configuration", "utility",
              "(+/-3SE)", "E00", "E01", "E10", "E11", "paper");
  std::printf("%-28s %9s %8s   %5s %5s %5s %5s   %s\n", "-------------", "-------",
              "--------", "---", "---", "---", "---", "-----");
}

void Reporter::row(const std::string& name, const rpd::UtilityEstimate& est,
                   const std::string& paper) {
  if (!args_.quiet) {
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
  if (!args_.quiet) std::printf("  [%s] %s\n", ok ? "PASS" : "DEVIATION", what.c_str());
  checks_.push_back(Check{ok, what});
  if (!ok) failures_++;
}

int Reporter::finish() {
  if (!args_.quiet) {
    std::printf("\n%s (%d deviation%s)\n",
                failures_ == 0 ? "ALL CHECKS PASSED" : "DEVIATIONS", failures_,
                failures_ == 1 ? "" : "s");
  }
  return 0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
          args_.threads);
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
  // Emitted only when the body recorded a batch, so reports of scenarios
  // without an offline phase carry no empty section.
  if (!offline_.empty()) {
    out += ",\n  \"preproc\": {\"offline\": [";
    for (std::size_t i = 0; i < offline_.size(); ++i) {
      appendf(out,
              "%s\n    {\"provider\": \"%s\", \"triples\": %zu, \"seconds\": %.6g}",
              i == 0 ? "" : ",", json_escape(offline_[i].provider).c_str(),
              offline_[i].triples, offline_[i].seconds);
    }
    out += "\n  ]}";
  }
  appendf(out, "\n}");
  return out;
}

}  // namespace fairsfe::bench
