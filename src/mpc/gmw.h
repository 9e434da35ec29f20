// The GMW protocol (Goldreich–Micali–Wigderson '87) over boolean circuits,
// in the OT-hybrid model — the paper's "unfair SFE" substrate ΠGMW.
//
// Each wire is XOR-shared among the n parties. XOR/NOT gates are local; each
// AND layer is evaluated either with one batch of pairwise OTs (cross terms
// x_i·y_j; PreprocMode::kInline) or, when an offline batch is installed, by
// spending one preprocessed Beaver triple per gate — a single broadcast of
// masked shares per layer with zero kFunc traffic (DESIGN.md §10). Outputs
// are opened by exchanging output-wire shares according to a per-party output
// map (supporting private outputs).
//
// Adversary model: this implementation provides passive security plus abort
// (an aborting or deviating party causes honest parties to output ⊥, never a
// wrong value for honest-but-aborting adversaries). That is exactly the
// power the paper's lower-bound adversaries use — they run corrupted parties
// honestly until aborting — and active security for the fairness phase is
// modeled by the ideal-hybrid mode (see DESIGN.md §6). The protocol is
// adaptively secure in this setting because channels are ideally private.
#pragma once

#include <functional>
#include <memory>

#include "circuit/circuit.h"
#include "circuit/compiled.h"
#include "crypto/rng.h"
#include "mpc/preproc/mode.h"
#include "mpc/preproc/store.h"
#include "sim/functionality.h"
#include "sim/party.h"

namespace fairsfe::mpc {

class GmwConfigBuilder;

struct GmwConfig {
  circuit::Circuit circuit;
  /// output_map[p] lists the indices (into circuit.outputs()) that party p
  /// learns. Use public_output() for the everyone-learns-everything case.
  std::vector<std::vector<std::size_t>> output_map{};
  /// Shared execution plan (AND-layer schedule + input wire maps), built once
  /// per circuit family and reused read-only by every party in every run.
  /// public_output() fills it; a null plan makes each GmwParty build its own.
  std::shared_ptr<const circuit::CompiledCircuit> plan{};
  /// How AND layers obtain their OT correlations. kInline keeps the classic
  /// per-layer ideal-OT round trips; the offline modes consume `preproc`.
  preproc::PreprocMode preproc_mode = preproc::PreprocMode::kInline;
  /// The offline batch, shared read-only across all parties/runs/threads of
  /// a scenario. Required (non-null, matching party count) when preproc_mode
  /// is an offline mode; ignored under kInline.
  std::shared_ptr<const preproc::CorrelatedRandomness> preproc{};

  /// Fluent construction: GmwConfig::for_circuit(c).with_plan(p)
  /// .with_preproc(mode, store).build(). Replaces aggregate-initialization
  /// order traps as optional slots accumulate.
  static GmwConfigBuilder for_circuit(circuit::Circuit c);
  /// Thin wrapper: for_circuit(c).build() (public outputs, compiled plan).
  static GmwConfig public_output(circuit::Circuit c);

  /// Beaver triples one run consumes per party: one per AND gate.
  [[nodiscard]] std::size_t triples_per_run() const {
    return plan ? plan->num_and_gates() : circuit.and_count();
  }
};

/// Builder for GmwConfig's optional slots. build() fills what was not set:
/// everyone-learns-everything output map and a freshly compiled plan.
class GmwConfigBuilder {
 public:
  explicit GmwConfigBuilder(circuit::Circuit c);

  GmwConfigBuilder& with_output_map(std::vector<std::vector<std::size_t>> m);
  GmwConfigBuilder& with_plan(std::shared_ptr<const circuit::CompiledCircuit> plan);
  GmwConfigBuilder& with_preproc(
      preproc::PreprocMode mode,
      std::shared_ptr<const preproc::CorrelatedRandomness> store = nullptr);

  [[nodiscard]] GmwConfig build();
  /// build(), boxed for the shared-across-parties use every caller has.
  [[nodiscard]] std::shared_ptr<const GmwConfig> build_shared();

 private:
  GmwConfig cfg_;
  bool have_output_map_ = false;
};

class GmwParty final : public sim::PartyBase<GmwParty> {
 public:
  /// `input` must have cfg->circuit.input_width(id) bits.
  GmwParty(sim::PartyId id, std::shared_ptr<const GmwConfig> cfg,
           std::vector<bool> input, Rng rng);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

  /// Position this party's triple tape on run `run_index`'s slice of the
  /// shared offline batch (offset run_index × triples-per-run). No-op under
  /// kInline. The estimator invokes this through RunSetup::bind_run so the
  /// slice assignment is a pure function of the run index — identical across
  /// thread counts.
  void bind_preproc_slice(std::size_t run_index);

 private:
  enum class Phase {
    kSendInputShares,
    kAwaitInputShares,
    kOtRoundTrip,   // inline: OT requests in flight (2-round latency)
    kBeaverOpen,    // offline: masked d/e broadcast in flight (1 round)
    kAwaitOutputs,  // output shares in flight
  };

  std::vector<sim::Message> send_input_shares();
  bool absorb_input_shares(sim::MsgView in);
  /// Evaluate the gates of the next resolution step (local gates + the ANDs
  /// whose OT layer just completed); consumes plan_->resolve_step(step_).
  void propagate();
  /// Emit OT traffic for AND layer `layer_`; empty if no layers remain.
  std::vector<sim::Message> send_layer_ots();
  bool absorb_ot_results(sim::MsgView in);
  /// Offline path: spend one triple per gate of layer `layer_` and broadcast
  /// the masked shares d_p = x_p ⊕ a_p, e_p = y_p ⊕ b_p for the whole layer.
  std::vector<sim::Message> send_layer_beaver();
  bool absorb_beaver(sim::MsgView in);
  /// Start AND layer `layer_` on whichever path the config selects.
  std::vector<sim::Message> start_and_layer();
  std::vector<sim::Message> send_output_shares();
  bool absorb_output_shares(sim::MsgView in);

  std::shared_ptr<const GmwConfig> cfg_;
  /// The shared plan (cfg_->plan, or a privately built fallback).
  std::shared_ptr<const circuit::CompiledCircuit> plan_;
  std::vector<bool> input_;
  Rng rng_;

  Phase phase_ = Phase::kSendInputShares;
  int ot_wait_ = 0;
  bool offline_ = false;
  /// Cursor into the shared batch (copyable, so clone() keeps working for
  /// the adversary's lock-detection probes).
  preproc::TripleTape tape_;
  /// Triples spent on the in-flight Beaver layer, in and_layer order.
  std::vector<preproc::BeaverTriple> pending_triples_;

  std::size_t layer_ = 0;
  std::size_t step_ = 0;  ///< next resolution step for propagate()

  // Per-wire share state.
  std::vector<char> share_;
  // Partial AND accumulators, indexed by gate: -1 = no OT batch pending,
  // else the current XOR of local term + r_ij + o_ji (0/1).
  std::vector<signed char> and_state_;
  std::size_t expected_ot_results_ = 0;
};

/// Build one GmwParty per party for the given inputs (inputs[p] = bit vector).
std::vector<std::unique_ptr<sim::IParty>> make_gmw_parties(
    std::shared_ptr<const GmwConfig> cfg, const std::vector<std::vector<bool>>& inputs,
    Rng& rng);

/// The hybrid slot a GMW execution needs under `cfg`: the ideal-OT hub for
/// kInline, nullptr for the offline modes (their AND layers are pure
/// broadcast — zero kFunc traffic). Callers outside src/mpc/ must use this
/// instead of naming OtHub (lint rule direct-ot-access).
std::unique_ptr<sim::IFunctionality> make_gmw_functionality(const GmwConfig& cfg);

/// RunSetup::bind_run hook for a GMW party vector: returns a callable that
/// points every GmwParty's triple tape at run_index's slice of the shared
/// batch. Captures raw party pointers (heap-stable), so the vector may move.
std::function<void(std::size_t)> make_gmw_run_binder(
    const std::vector<std::unique_ptr<sim::IParty>>& parties);

}  // namespace fairsfe::mpc
