// Traced replay of the estimator's scalar loop, from outside the library.
//
// Run i is rebuilt exactly as rpd::estimate_utility builds it: the streams
// are Rng(seed).fork_at("run", i), then .fork("setup") for the factory and
// .fork("engine") for rpd::execute. The run's parties, functionality and
// adversary are wrapped in timing decorators before execution; probe clones
// go through the party decorator, so they nest under the adversary span that
// asked for them. Spans stay in memory and are written out at the end. A
// replay guard re-estimates every row with rpd::estimate_utility and demands
// the same per-run events and utility, bit for bit.
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <typeinfo>

#include "experiments/registry.h"
#include "modes.h"
#include "rpd/events.h"

namespace perfbench {

namespace rpd = fairsfe::rpd;
namespace sim = fairsfe::sim;
using fairsfe::Rng;

namespace {

enum class Kind : std::uint8_t {
  kFactory,
  kExecute,
  kPartyStep,
  kAdversary,
  kProbeClone,
  kProbeStep,
  kFunctionality,
  kScore,
};
constexpr std::size_t kNumKinds = 8;
constexpr std::array<const char*, kNumKinds> kKindNames = {
    "factory", "execute", "party_step", "adversary",
    "probe_clone", "probe_step", "functionality", "score"};

class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t run = 0;
    std::uint16_t row = 0;
    Kind kind = Kind::kFactory;
  };
  static constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

  class Scope {
   public:
    Scope(Tracer& t, Kind k) : t_(t), idx_(t.open(k)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t idx_;
  };

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 18); }

  void set_run(std::uint32_t run, std::uint16_t row) {
    run_ = run;
    row_ = row;
  }
  /// Drop the spans of an abandoned attempt (spans [n, size)). Its scopes
  /// have all closed by the time the exception is caught.
  void truncate(std::size_t n) { spans_.resize(n); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t open(Kind k) {
    Span s;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.run = run_;
    s.row = row_;
    s.kind = k;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(idx);
    s.start_ns = now_ns();
    spans_.push_back(s);
    return idx;
  }
  void close(std::uint32_t idx) {
    spans_[idx].end_ns = now_ns();
    open_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t run_ = 0;
  std::uint16_t row_ = 0;
};

class TracedParty final : public sim::IParty {
 public:
  TracedParty(std::unique_ptr<sim::IParty> inner, Tracer& t, bool probe)
      : inner_(std::move(inner)), t_(t), step_(probe ? Kind::kProbeStep : Kind::kPartyStep) {}

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override {
    Tracer::Scope s(t_, step_);
    return inner_->on_round(round, in);
  }
  void on_abort() override {
    Tracer::Scope s(t_, step_);
    inner_->on_abort();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<fairsfe::Bytes> output() const override {
    return inner_->output();
  }
  [[nodiscard]] std::unique_ptr<sim::IParty> clone() const override {
    Tracer::Scope s(t_, Kind::kProbeClone);
    return std::make_unique<TracedParty>(inner_->clone(), t_, /*probe=*/true);
  }
  [[nodiscard]] sim::PartyId id() const override { return inner_->id(); }

 private:
  std::unique_ptr<sim::IParty> inner_;
  Tracer& t_;
  Kind step_;
};

class TracedFunctionality final : public sim::IFunctionality {
 public:
  TracedFunctionality(std::unique_ptr<sim::IFunctionality> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override {
    Tracer::Scope s(t_, Kind::kFunctionality);
    return inner_->on_round(ctx, round, in);
  }

 private:
  std::unique_ptr<sim::IFunctionality> inner_;
  Tracer& t_;
};

class TracedAdversary final : public sim::IAdversary {
 public:
  TracedAdversary(std::unique_ptr<sim::IAdversary> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  void setup(sim::AdvContext& ctx) override {
    Tracer::Scope s(t_, Kind::kAdversary);
    inner_->setup(ctx);
  }
  std::vector<sim::Message> on_round(sim::AdvContext& ctx, const sim::AdvView& view) override {
    Tracer::Scope s(t_, Kind::kAdversary);
    return inner_->on_round(ctx, view);
  }
  bool abort_functionality(sim::AdvContext& ctx,
                           const std::vector<sim::Message>& corrupted_outputs) override {
    Tracer::Scope s(t_, Kind::kAdversary);
    return inner_->abort_functionality(ctx, corrupted_outputs);
  }
  [[nodiscard]] bool learned_output() const override { return inner_->learned_output(); }
  [[nodiscard]] std::optional<fairsfe::Bytes> extracted_output() const override {
    return inner_->extracted_output();
  }
  [[nodiscard]] bool finished() const override { return inner_->finished(); }

 private:
  std::unique_ptr<sim::IAdversary> inner_;
  Tracer& t_;
};

/// One configuration the replay executes: a factory, its payoff model, and
/// the runs and seed of one estimate.
struct TracedRow {
  std::string name;
  rpd::SetupFactory factory;
  std::shared_ptr<const rpd::PayoffModel> model;
  std::size_t runs = 0;
  std::uint64_t seed = 0;
};

/// What the replay of one row produced, in the estimator's own terms.
struct Replay {
  std::vector<rpd::FairnessEvent> events;
  double utility = 0.0;
  double std_error = 0.0;
  std::size_t valid = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  bool parties_unwrapped = false;  ///< a downcast forced plain parties
};

// Mirrors the estimator's fixed 64-run shards: moments are summed per shard
// and shards are merged in index order, so the replayed utility and
// standard error round exactly as rpd::estimate_utility's do.
constexpr std::size_t kShardRuns = 64;

// Runs the replay executes per traced row: one estimator shard.
constexpr std::size_t kTraceRuns = kShardRuns;

struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t valid = 0;
};

class Replayer {
 public:
  explicit Replayer(Tracer& t) : t_(t) {}

  Replay replay(const TracedRow& row, std::uint16_t row_index) {
    Replay out;
    out.events.resize(row.runs);
    const Rng master(row.seed);
    Moments total;
    Moments shard;
    for (std::size_t i = 0; i < row.runs; ++i) {
      t_.set_run(next_run_id_++, row_index);
      const std::size_t mark = t_.spans().size();
      try {
        run_one(row, master, i, !out.parties_unwrapped, out, shard);
      } catch (const std::bad_cast&) {
        // The protocol downcasts its parties (e.g. coinflip's adversary):
        // rerun this run — a pure function of (seed, i) — undecorated.
        t_.truncate(mark);
        out.parties_unwrapped = true;
        run_one(row, master, i, false, out, shard);
      }
      if ((i + 1) % kShardRuns == 0 || i + 1 == row.runs) {
        total.sum += shard.sum;
        total.sum_sq += shard.sum_sq;
        total.valid += shard.valid;
        shard = Moments{};
      }
    }
    out.valid = total.valid;
    if (total.valid > 0) {
      const auto v = static_cast<double>(total.valid);
      out.utility = total.sum / v;
      if (total.valid > 1) {
        const double var = (total.sum_sq - v * out.utility * out.utility) / (v - 1.0);
        out.std_error = std::sqrt(std::max(0.0, var) / v);
      }
    }
    return out;
  }

  [[nodiscard]] std::uint32_t runs() const { return next_run_id_; }

 private:
  void run_one(const TracedRow& row, const Rng& master, std::size_t i, bool wrap_parties,
               Replay& out, Moments& shard) {
    Rng run_rng = master.fork_at("run", i);
    Rng setup_rng = run_rng.fork("setup");
    rpd::RunSetup setup;
    {
      Tracer::Scope s(t_, Kind::kFactory);
      setup = row.factory(setup_rng);
    }
    if (setup.bind_run) setup.bind_run(i);
    const std::size_t n = setup.parties.size();
    auto j_predicate = setup.honest_got_output;
    auto i_predicate = setup.adversary_learned;
    auto annotate = setup.annotate;
    if (wrap_parties) {
      for (auto& p : setup.parties) p = std::make_unique<TracedParty>(std::move(p), t_, false);
    }
    if (setup.functionality) {
      setup.functionality =
          std::make_unique<TracedFunctionality>(std::move(setup.functionality), t_);
    }
    if (setup.adversary) {
      setup.adversary = std::make_unique<TracedAdversary>(std::move(setup.adversary), t_);
    }
    sim::ExecutionResult result;
    {
      Tracer::Scope s(t_, Kind::kExecute);
      result = rpd::execute(std::move(setup), run_rng.fork("engine"));
    }
    Tracer::Scope s(t_, Kind::kScore);
    const bool j_bit = j_predicate ? j_predicate(result) : rpd::all_honest_nonbot(result, n);
    rpd::Outcome o = rpd::outcome_of(result, n, j_bit);
    if (i_predicate) o.adversary_learned = i_predicate(result);
    const rpd::FairnessEvent e = rpd::classify(o);
    out.events[i] = e;
    out.rounds += static_cast<std::uint64_t>(result.rounds);
    out.messages += result.stats.messages;
    out.payload_bytes += result.stats.payload_bytes;
    if (result.hit_round_cap) return;
    rpd::RunOutcome ro;
    ro.event = e;
    ro.outcome = o;
    if (annotate) annotate(result, ro);
    const double pay = row.model->score(ro);
    shard.sum += pay;
    shard.sum_sq += pay * pay;
    shard.valid += 1;
  }

  Tracer& t_;
  std::uint32_t next_run_id_ = 0;
};

std::vector<TracedRow> traced_rows(const std::string& workload, std::uint64_t seed) {
  std::vector<TracedRow> rows;
  if (is_batch_workload(workload)) {
    const BatchWorkload w = make_batch_workload(workload, seed);
    // Each row replays one shard under its seed in the first request.
    for (std::size_t r = 0; r < w.rows.size(); ++r) {
      rows.push_back(TracedRow{w.rows[r].name, w.rows[r].factory, w.rows[r].model,
                               kTraceRuns, w.seeds[0][r]});
    }
    return rows;
  }
  // daemon_mix: the canonical attack of every request shape's scenario.
  const Rng master(seed);
  for (const Shape& shape : kShapes) {
    const auto* spec = fairsfe::experiments::Registry::instance().find(shape.scenario);
    if (spec == nullptr) throw std::runtime_error("unregistered scenario");
    Rng r = master.fork_at("trace", rows.size());
    rows.push_back(TracedRow{std::string(shape.scenario) + " " + spec->attacks.front().name,
                             spec->attacks.front().factory,
                             spec->model ? spec->model : rpd::make_vector_model(spec->gamma),
                             kTraceRuns, r.u64()});
  }
  return rows;
}

rpd::UtilityEstimate reference_estimate(const TracedRow& row) {
  rpd::EstimationTarget target;
  target.factory = row.factory;
  rpd::EstimatorOptions o;
  o.runs = row.runs;
  o.seed = row.seed;
  o.threads = 1;
  return rpd::estimate_utility(target, *row.model, o);
}

struct KindTotals {
  std::array<std::uint64_t, kNumKinds> count{};
  std::array<double, kNumKinds> total_us{};
  std::array<double, kNumKinds> self_us{};
};

KindTotals totals(const std::vector<Tracer::Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.parent != Tracer::kNoParent) {
      child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  KindTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans[i].kind);
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    t.count[k] += 1;
    t.total_us[k] += dur;
    t.self_us[k] += dur - child_us[i];
  }
  return t;
}

bool write_spans(const std::string& path, const TraceInput& in,
                 const std::vector<TracedRow>& rows, const std::vector<Tracer::Span>& spans) {
  std::ofstream f(path);
  f << "# perfbench span dump: workload=" << in.workload << " seed=" << in.seed << "\n";
  f << "# replay: " << in.replay_cmd << "\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    f << "# row " << r << ": " << rows[r].name << " runs=" << rows[r].runs
      << " seed=" << rows[r].seed << "\n";
  }
  f << "id,parent,run,row,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    f << i << ',';
    if (s.parent != Tracer::kNoParent) f << s.parent;
    f << ',' << s.run << ',' << s.row << ',' << kKindNames[static_cast<std::size_t>(s.kind)]
      << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(f);
}

}  // namespace

void run_trace(const TraceInput& in, Result& out) {
  const std::vector<TracedRow> rows = traced_rows(in.workload, in.seed);

  // Untraced reference first (it also warms every cache the replay uses).
  std::vector<rpd::UtilityEstimate> refs;
  for (const TracedRow& row : rows) refs.push_back(reference_estimate(row));

  Tracer tracer;
  Replayer replayer(tracer);
  std::vector<Replay> replays;
  const auto traced_t0 = Clock::now();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    replays.push_back(replayer.replay(rows[r], static_cast<std::uint16_t>(r)));
  }
  const double traced_s = seconds_since(traced_t0);

  const auto plain_t0 = Clock::now();
  for (const TracedRow& row : rows) (void)reference_estimate(row);
  const double plain_s = seconds_since(plain_t0);

  // Replay guard: the decorated replay must be the estimator, bit for bit.
  std::size_t unwrapped = 0;
  out.line("%-40s %6s %10s %10s %9s  %s", "traced row", "runs", "utility", "exec us/run",
           "clones", "replay guard");
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> exec_us(rows.size(), 0.0);
  std::vector<double> clones(rows.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.kind == Kind::kExecute) {
      exec_us[s.row] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
    if (s.kind == Kind::kProbeClone) clones[s.row] += 1.0;
  }
  std::uint64_t valid = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Replay& rp = replays[r];
    const rpd::UtilityEstimate& ref = refs[r];
    const bool same = rp.events == ref.run_events && rp.utility == ref.utility &&
                      rp.std_error == ref.std_error && rp.valid == ref.valid_runs;
    const auto runs = static_cast<double>(rows[r].runs);
    out.line("%-40s %6zu %10.4f %10.1f %9.2f  %s%s", rows[r].name.c_str(), rows[r].runs,
             rp.utility, exec_us[r] / runs, clones[r] / runs, same ? "identical" : "MISMATCH",
             rp.parties_unwrapped ? " (party decorators skipped: downcast)" : "");
    if (!same) out.fail("replay of " + rows[r].name + " differs from rpd::estimate_utility");
    unwrapped += rp.parties_unwrapped ? 1 : 0;
    valid += rp.valid;
    rounds += rp.rounds;
    messages += rp.messages;
    payload += rp.payload_bytes;
  }
  out.line("party decorators skipped on %zu of %zu rows", unwrapped, rows.size());

  const auto runs = static_cast<double>(replayer.runs());
  const KindTotals t = totals(spans);
  auto per_run = [&](Kind k) { return t.self_us[static_cast<std::size_t>(k)] / runs; };
  auto count_per_run = [&](Kind k) {
    return static_cast<double>(t.count[static_cast<std::size_t>(k)]) / runs;
  };
  out.attempted += replayer.runs();
  out.failed += replayer.runs() - valid;
  out.metric("experiments.factory_us", per_run(Kind::kFactory), "us");
  out.metric("sim.execute_us", t.total_us[static_cast<std::size_t>(Kind::kExecute)] / runs,
             "us");
  out.metric("sim.engine_self_us", per_run(Kind::kExecute), "us");
  out.metric("sim.rounds_per_run", static_cast<double>(rounds) / runs, "count");
  out.metric("sim.messages_per_run", static_cast<double>(messages) / runs, "count");
  out.metric("sim.payload_bytes_per_run", static_cast<double>(payload) / runs, "bytes");
  out.metric("fair.party_step_us", per_run(Kind::kPartyStep), "us");
  out.metric("fair.party_steps_per_run", count_per_run(Kind::kPartyStep), "count");
  out.metric("adversary.self_us", per_run(Kind::kAdversary), "us");
  out.metric("adversary.probe_clone_us", per_run(Kind::kProbeClone), "us");
  out.metric("adversary.probe_step_us", per_run(Kind::kProbeStep), "us");
  out.metric("adversary.clones_per_run", count_per_run(Kind::kProbeClone), "count");
  out.metric("functionality.self_us", per_run(Kind::kFunctionality), "us");
  out.metric("functionality.calls_per_run", count_per_run(Kind::kFunctionality), "count");
  out.metric("rpd.score_us", per_run(Kind::kScore), "us");
  out.metric("rpd.valid_frac", static_cast<double>(valid) / runs, "ratio");
  out.metric("tracing.overhead_pct", (traced_s / plain_s - 1.0) * 100.0, "%");

  // Self-time table by layer. The three root spans cover the whole run, so
  // the shares add up to the traced time per run.
  double root_us = 0.0;
  for (const Kind k : {Kind::kFactory, Kind::kExecute, Kind::kScore}) {
    root_us += t.total_us[static_cast<std::size_t>(k)];
  }
  out.line("self time by layer, %s, %.0f traced runs (%.1f us/run traced, %.1f us/run plain; "
           "tracing overhead %.1f%%)",
           in.workload.c_str(), runs, root_us / runs, plain_s * 1e6 / runs,
           (traced_s / plain_s - 1.0) * 100.0);
  out.line("  %-26s %12s %8s %12s", "layer (span)", "self us/run", "share", "spans/run");
  const std::array<const char*, kNumKinds> layer = {
      "experiments (factory)", "sim (execute)",       "fair (party_step)",
      "adversary (self)",      "adversary (clone)",   "adversary (probe_step)",
      "functionality (self)",  "rpd (score)"};
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    out.line("  %-26s %12.2f %7.1f%% %12.2f", layer[k], t.self_us[k] / runs,
             100.0 * t.self_us[k] / root_us, static_cast<double>(t.count[k]) / runs);
  }
  if (!write_spans(in.spans_path, in, rows, spans)) {
    out.fail("cannot write the span dump to " + in.spans_path);
  }
  out.line("%zu spans written to %s", spans.size(), in.spans_path.c_str());
}

}  // namespace perfbench
