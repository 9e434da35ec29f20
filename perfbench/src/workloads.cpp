#include "workloads.h"

#include <cmath>
#include <stdexcept>

#include "experiments/registry.h"
#include "experiments/setups.h"
#include "fair/gk.h"

namespace perfbench {

namespace fx = fairsfe::experiments;
namespace rpd = fairsfe::rpd;

namespace {

const fx::ScenarioSpec& spec(const std::string& id) {
  const fx::ScenarioSpec* s = fx::Registry::instance().find(id);
  if (s == nullptr) throw std::runtime_error("scenario not registered: " + id);
  return *s;
}

std::shared_ptr<const rpd::PayoffModel> model_of(const fx::ScenarioSpec& s) {
  return s.model ? s.model : rpd::make_vector_model(s.gamma);
}

// E10 / E16's gate: u <= 1/p + margin + 0.02.
void add_partial_fairness_rows(std::vector<Row>& rows, const std::string& prefix,
                               const std::vector<rpd::NamedAttack>& family,
                               const fx::ScenarioSpec& s, std::size_t p) {
  const double bound = 1.0 / static_cast<double>(p);
  for (const rpd::NamedAttack& a : family) {
    rows.push_back(Row{prefix + " " + a.name, a.factory, model_of(s),
                       [bound](double u, double margin) { return u <= bound + margin + 0.02; },
                       "u <= 1/p + margin + 0.02 (1/p = " + std::to_string(bound) + ")"});
  }
}

// E05's gate: |u - (t*g10 + (n-t)*g11)/n| < margin + 0.03.
Row optn_row(const std::string& name, rpd::SetupFactory factory,
             const fx::ScenarioSpec& s, std::size_t n, std::size_t t) {
  const double bound = s.gamma.nparty_bound(t, n);
  return Row{name, std::move(factory), model_of(s),
             [bound](double u, double margin) { return std::abs(u - bound) < margin + 0.03; },
             "|u - (t*g10+(n-t)*g11)/n| < margin + 0.03 (bound = " + std::to_string(bound) +
                 ")"};
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "gk_abort" || name == "optn_lamport";
}

BatchWorkload make_batch_workload(const std::string& name, std::uint64_t seed) {
  BatchWorkload w;
  if (name == "gk_abort") {
    const fx::ScenarioSpec& e10 = spec("exp10_gk_partial_fairness");
    for (const std::size_t p : {4u, 8u}) {
      add_partial_fairness_rows(w.rows, "gk p=" + std::to_string(p),
                                fx::gk_attack_family(fairsfe::fair::make_gk_and_params(p)),
                                e10, p);
    }
    add_partial_fairness_rows(w.rows, "gk_multi n=3 t=2 p=4",
                              fx::gk_multi_attack_family(3, 2, 4),
                              spec("exp16_multiparty_partial_fairness"), 4);
  } else if (name == "optn_lamport") {
    const fx::ScenarioSpec& e05 = spec("exp05_nparty_bounds");
    for (const std::size_t n : {5u, 8u}) {
      const std::string ns = std::to_string(n);
      w.rows.push_back(optn_row("optn n=" + ns + " lock-abort t=" + std::to_string(n - 1),
                                fx::optn_lock_abort(n, n - 1), e05, n, n - 1));
      // Lemma 13: the mixed A_ibar adversary reaches the t = n-1 value.
      w.rows.push_back(
          optn_row("optn n=" + ns + " mixed A_ibar", fx::optn_a_ibar_mixed(n), e05, n, n - 1));
    }
  } else {
    throw std::invalid_argument("not a batch workload: " + name);
  }
  // Requests of ~10-20 ms and passes of ~2 s, so a run holds many passes.
  // The gate pools 256 (gk) or 2048 (optn) runs per row.
  constexpr std::size_t kRequests = 128;
  w.runs_per_estimate = name == "gk_abort" ? 2 : 16;

  const fairsfe::Rng master(seed);
  for (std::size_t k = 0; k < kRequests; ++k) {
    const fairsfe::Rng request = master.fork_at("request", k);
    std::vector<std::uint64_t> row_seeds;
    for (std::size_t r = 0; r < w.rows.size(); ++r) {
      row_seeds.push_back(request.fork_at("row", r).u64());
    }
    w.seeds.push_back(std::move(row_seeds));
  }
  return w;
}

MixStream::MixStream(std::uint64_t seed, std::size_t connection)
    : rng_(fairsfe::Rng(seed).fork_at("connection", connection)) {}

MixRequest MixStream::next() {
  MixRequest r;
  // One request in four is a status poll; the estimates split evenly.
  const std::uint64_t kind = rng_.below(4);
  r.status = kind == kNumShapes;
  r.shape = r.status ? 0 : static_cast<std::size_t>(kind);
  // JSON numbers are doubles on the daemon side: keep seeds exact.
  r.seed = rng_.u64() & 0xffffffffu;
  r.verify = !r.status && rng_.below(32) == 0;
  return r;
}

std::string request_line(const MixRequest& r, const std::string& id) {
  if (r.status) return "{\"verb\":\"status\",\"id\":\"" + id + "\"}";
  const Shape& s = kShapes[r.shape];
  return std::string("{\"verb\":\"estimate\",\"scenario\":\"") + s.scenario +
         "\",\"runs\":" + std::to_string(s.runs) + ",\"seed\":" + std::to_string(r.seed) +
         ",\"threads\":1,\"lanes\":" + std::to_string(s.lanes) + ",\"id\":\"" + id + "\"}";
}

fairsfe::bench::Args request_args(const MixRequest& r) {
  const Shape& s = kShapes[r.shape];
  fairsfe::bench::Args a;
  a.quiet = true;
  a.runs = s.runs;
  a.runs_set = true;
  a.seed = r.seed;
  a.threads = 1;
  a.lanes = s.lanes;
  return a;
}

}  // namespace perfbench
