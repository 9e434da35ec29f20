// P02 — end-to-end protocol execution throughput (google-benchmark): full
// engine runs of the fair protocols and the GMW substrate (gates/second), and
// whole Monte-Carlo utility points through the estimator.
// BM_OptnLockAbortRun/{5,8} times ΠOptnSFE's probe-clone path (factory +
// execute under the lock-abort (n−1)-coalition). Two pairs keep the
// GMW speed ratios measurable: BM_GmwPreprocPhase/{inline,offline_ideal}
// (the online phase vs inline OT-hybrid execution) and
// BM_GmwLanesEstimation/{1,64} (scalar vs bit-sliced estimation).
// BM_UtilityEstimationThreads/{1,2,4,8} shows thread scaling, and
// BM_GkDeal/{4,8} times GK's ShareGen dealing at the p = 4 and p = 8 caps, and
// BM_GkMultiDeal/{3,8} the n-party dealer for n = 3 and 8 parties. The shared
// main (benchmark_main.cpp) forwards --json/--filter onto google-benchmark.
#include <benchmark/benchmark.h>

#include "circuit/builder.h"
#include "experiments/setups.h"
#include "fair/gk_multi.h"
#include "fair/mixed.h"
#include "fair/opt2_compiled.h"
#include "fair/opt2sfe.h"
#include "mpc/gmw.h"
#include "mpc/ot.h"
#include "mpc/preproc/provider.h"
#include "mpc/yao.h"

namespace fairsfe {
namespace {

using namespace experiments;

void BM_Opt2SfeHonestRun(benchmark::State& state) {
  std::uint64_t seed = 0;
  const mpc::SfeSpec spec = two_party_spec();
  for (auto _ : state) {
    Rng rng(seed++);
    const auto xs = random_inputs(2, rng);
    auto parties = fair::make_opt2_parties(spec, xs[0], xs[1], rng);
    sim::Engine e(std::move(parties), std::make_unique<fair::Opt2ShareFunc>(spec), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
}
BENCHMARK(BM_Opt2SfeHonestRun);

void BM_OptNSfeHonestRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const mpc::SfeSpec spec = nparty_spec(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const auto xs = random_inputs(n, rng);
    auto inst = fair::make_optn_instance(spec, xs, rng);
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
}
BENCHMARK(BM_OptNSfeHonestRun)->Arg(3)->Arg(5)->Arg(9);

// ΠOptnSFE under the lock-abort (n−1)-coalition, factory + execute: the
// probe-clone path. The adversary clones its corrupted parties at every
// round, before and after phase 1 delivers the Lamport key (the honest run
// above makes no probes).
void BM_OptnLockAbortRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const rpd::SetupFactory factory = optn_lock_abort(n, n - 1);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);  // per-run streams as the estimator derives them
    Rng setup_rng = rng.fork("setup");
    rpd::RunSetup setup = factory(setup_rng);
    benchmark::DoNotOptimize(rpd::execute(std::move(setup), rng.fork("engine")));
  }
}
BENCHMARK(BM_OptnLockAbortRun)->Arg(5)->Arg(8);

void BM_HalfGmwHonestRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const mpc::SfeSpec spec = nparty_spec(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    const auto xs = random_inputs(n, rng);
    auto inst = fair::make_half_gmw_instance(spec, xs, rng);
    sim::Engine e(std::move(inst.parties), std::move(inst.functionality), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
}
BENCHMARK(BM_HalfGmwHonestRun)->Arg(4)->Arg(8);

void BM_GmwMillionaires(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  auto cfg = std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_millionaires_circuit(bits)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    std::vector<std::vector<bool>> inputs = {
        circuit::u64_to_bits(rng.below(1u << bits), bits),
        circuit::u64_to_bits(rng.below(1u << bits), bits)};
    auto parties = mpc::make_gmw_parties(cfg, inputs, rng);
    sim::Engine e(std::move(parties), mpc::make_gmw_functionality(*cfg), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
  state.counters["and_gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cfg->circuit.and_count()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GmwMillionaires)->Arg(8)->Arg(16)->Arg(24);

void BM_GmwMaxNParty(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto cfg = std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_max_circuit(n, 8)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < n; ++p) {
      inputs.push_back(circuit::u64_to_bits(rng.below(256), 8));
    }
    auto parties = mpc::make_gmw_parties(cfg, inputs, rng);
    sim::Engine e(std::move(parties), mpc::make_gmw_functionality(*cfg), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
  state.counters["and_gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cfg->circuit.and_count()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GmwMaxNParty)->Arg(2)->Arg(4)->Arg(6);

void BM_YaoMillionaires(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  auto circuit = std::make_shared<const circuit::Circuit>(
      circuit::make_millionaires_circuit(bits));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    std::vector<std::vector<bool>> inputs = {
        circuit::u64_to_bits(rng.below(1u << bits), bits),
        circuit::u64_to_bits(rng.below(1u << bits), bits)};
    auto parties = mpc::make_yao_parties(circuit, inputs, rng);
    sim::Engine e(std::move(parties), mpc::make_ot_functionality(), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * circuit->num_wires()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_YaoMillionaires)->Arg(8)->Arg(16)->Arg(24);

void BM_Opt2CompiledRun(benchmark::State& state) {
  auto base = std::make_shared<const circuit::Circuit>(circuit::make_concat_circuit(2, 8));
  const auto plan = fair::Opt2CompiledPlan::build(base);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    std::vector<std::vector<bool>> inputs = {circuit::u64_to_bits(rng.below(256), 8),
                                             circuit::u64_to_bits(rng.below(256), 8)};
    auto parties = fair::make_opt2_compiled_parties(plan, inputs, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = 24;
    sim::Engine e(std::move(parties), mpc::make_ot_functionality(), nullptr,
                  rng.fork("engine"), cfg);
    benchmark::DoNotOptimize(e.run());
  }
}
BENCHMARK(BM_Opt2CompiledRun);

void BM_GkProtocolRun(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const fair::GkParams params = fair::make_gk_and_params(p);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto parties = fair::make_gk_parties(params, Bytes{1}, Bytes{1}, rng);
    sim::ExecutionOptions cfg;
    cfg.max_rounds = static_cast<int>(2 * params.cap() + 10);
    sim::Engine e(std::move(parties), std::make_unique<fair::ShareGenFunc>(params), nullptr,
                  rng.fork("engine"), cfg);
    benchmark::DoNotOptimize(e.run());
  }
  state.counters["rounds"] = static_cast<double>(2 * params.cap());
}
BENCHMARK(BM_GkProtocolRun)->Arg(2)->Arg(4)->Arg(8);

void BM_GkDeal(benchmark::State& state) {
  // ShareGen's dealing alone: deal_auth_stream_payloads at GK's round cap
  // for p = 4 / 8 on AND (|Y| = 2), i.e. 2·cap authenticated sharings of
  // 1-byte values into the two framed party payloads per iteration.
  const fair::GkParams params = fair::make_gk_and_params(static_cast<std::size_t>(state.range(0)));
  const std::size_t cap = params.cap();
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  const Bytes y{1};
  const auto fake = [&rng] { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  for (auto _ : state) {
    const std::size_t i_star = 1 + static_cast<std::size_t>(rng.below(cap));
    benchmark::DoNotOptimize(
        fair::deal_auth_stream_payloads(cap, i_star, y, fake, fake, rng));
  }
  state.counters["sharings"] = static_cast<double>(2 * cap);
}
BENCHMARK(BM_GkDeal)->Arg(4)->Arg(8);

// A dealer context with no corrupted party, so the abort gate never fires.
class DealerContext final : public sim::FuncContext {
 public:
  DealerContext(int n, std::uint64_t seed) : n_(n), rng_(seed) {}
  [[nodiscard]] int n() const override { return n_; }
  Rng& rng() override { return rng_; }
  [[nodiscard]] const std::set<sim::PartyId>& corrupted() const override { return none_; }
  bool adversary_abort_gate(const std::vector<sim::Message>& /*outputs*/) override {
    return false;
  }

 private:
  int n_;
  Rng rng_;
  std::set<sim::PartyId> none_;
};

void BM_GkMultiDeal(benchmark::State& state) {
  // The n-party ShareGen of E16 on AND at p = 4: cap = 65 rounds, each an
  // n-way XOR sharing with n nonces and n share hashes, per iteration.
  const auto n = static_cast<std::size_t>(state.range(0));
  const fair::GkMultiParams params = fair::make_gk_multi_and_params(n, 4);
  DealerContext ctx(static_cast<int>(n), n);
  std::vector<sim::Message> in;
  for (std::size_t p = 0; p < n; ++p) {
    in.push_back(sim::Message{static_cast<sim::PartyId>(p), sim::kFunc,
                              sim::encode_func_input(Bytes{1})});
  }
  for (auto _ : state) {
    fair::MultiShareGenFunc dealer(params);
    benchmark::DoNotOptimize(dealer.on_round(ctx, 1, in));
  }
  state.counters["hashes"] = static_cast<double>(n * params.cap());
}
BENCHMARK(BM_GkMultiDeal)->Arg(3)->Arg(8);

void BM_UtilityEstimation(benchmark::State& state) {
  // Cost of one full Monte-Carlo utility point (100 runs).
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rpd::estimate_utility(opt2_lock_abort(0), gamma,
                              rpd::EstimatorOptions{.runs = 100, .seed = seed++}));
  }
}
BENCHMARK(BM_UtilityEstimation)->Unit(benchmark::kMillisecond);

void BM_UtilityEstimationThreads(benchmark::State& state) {
  // The same 512-run utility point sharded over N worker threads.
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  rpd::EstimatorOptions opts;
  opts.runs = 512;
  opts.seed = 42;
  opts.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpd::estimate_utility(opt2_lock_abort(0), gamma, opts));
  }
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * opts.runs), benchmark::Counter::kIsRate);
}
// Wall time: the work runs on pool threads, not the timing thread.
BENCHMARK(BM_UtilityEstimationThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_GmwPreprocPhase(benchmark::State& state, mpc::preproc::PreprocMode mode) {
  // The offline/online split (DESIGN.md §10) on gmw_max_4party_8bit: `inline`
  // runs the OT-hybrid protocol; `offline_ideal` runs only the online phase,
  // each run spending its slice of one ideal-dealer batch dealt before the
  // timed loop (run indices cycle through the batch's kBatchRuns slices).
  constexpr std::size_t kBatchRuns = 1024;
  auto cfg = std::make_shared<const mpc::GmwConfig>(
      mpc::GmwConfig::public_output(circuit::make_max_circuit(4, 8)));
  const bool offline = mpc::preproc::is_offline(mode);
  if (offline) {
    mpc::preproc::PreprocRequest req;
    req.parties = cfg->circuit.num_parties();
    req.triples = kBatchRuns * cfg->triples_per_run();
    Rng dealer_rng(1);
    cfg = mpc::GmwConfig::for_circuit(cfg->circuit)
              .with_plan(cfg->plan)
              .with_preproc(mode, mpc::preproc::generate_batch(mode, req, dealer_rng))
              .build_shared();
  }
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed);
    std::vector<std::vector<bool>> inputs;
    for (std::size_t p = 0; p < 4; ++p) {
      inputs.push_back(circuit::u64_to_bits(rng.below(256), 8));
    }
    auto parties = mpc::make_gmw_parties(cfg, inputs, rng);
    if (offline) mpc::make_gmw_run_binder(parties)(seed % kBatchRuns);
    sim::Engine e(std::move(parties), mpc::make_gmw_functionality(*cfg), nullptr,
                  rng.fork("engine"));
    benchmark::DoNotOptimize(e.run());
    ++seed;
  }
  state.counters["runs/s"] = benchmark::Counter(static_cast<double>(state.iterations()),
                                                benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_GmwPreprocPhase, inline, mpc::preproc::PreprocMode::kInline);
BENCHMARK_CAPTURE(BM_GmwPreprocPhase, offline_ideal,
                  mpc::preproc::PreprocMode::kOfflineIdeal);

void BM_GmwLanesEstimation(benchmark::State& state) {
  // Bit-sliced execution (DESIGN.md §11): a 2048-run honest estimation of
  // gmw_millionaires_16 on the scalar engine (lanes 1) vs 64 runs per machine
  // word (lanes 64). The estimates are bit-identical (BitsliceGmw.*).
  const GmwHonestPair pair =
      gmw_honest_pair(std::make_shared<const mpc::GmwConfig>(
          mpc::GmwConfig::public_output(circuit::make_millionaires_circuit(16))));
  const rpd::EstimationTarget target{pair.factory, pair.sliced, pair.parties};
  const rpd::PayoffVector gamma = rpd::PayoffVector::standard();
  rpd::EstimatorOptions opts;
  opts.runs = 2048;
  opts.seed = 42;
  opts.lanes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpd::estimate_utility(target, gamma, opts));
  }
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * opts.runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GmwLanesEstimation)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fairsfe
