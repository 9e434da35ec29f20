// Synchronous protocol-execution engine.
//
// Drives one execution of a protocol (a vector of party state machines, an
// optional hybrid functionality, and an optional adversary) through rounds
// until every honest party has terminated. The engine enforces the channel
// model: point-to-point messages are private; broadcast reaches everyone;
// the adversary may only originate traffic from corrupted parties; rushing
// and adaptive corruption follow the ordering documented in sim/adversary.h.
//
// Hot path: each round's messages are collected once into a round buffer and
// routed into per-party mailboxes (index lists into that buffer), so a
// point-to-point payload is moved exactly once and a broadcast body is stored
// once and shared by index across all recipients. Consumers receive MsgView
// borrows — no per-recipient copies. Transcripts are opt-in
// (ExecutionOptions::record_transcript) and recorded as raw messages,
// rendered to strings only on demand.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "mpc/preproc/mode.h"
#include "sim/adversary.h"
#include "sim/fault/plan.h"
#include "sim/functionality.h"
#include "sim/message.h"
#include "sim/party.h"

namespace fairsfe::sim {

struct ExecutionOptions {
  int max_rounds = 512;
  /// Record every round's messages in ExecutionResult::transcript. Off by
  /// default: the Monte-Carlo estimator discards transcripts, so the hot path
  /// never pays for them. Examples and debugging runs switch it on.
  bool record_transcript = false;
  /// Network-fault / crash-injection plan (sim/fault/plan.h). The default
  /// (disabled) plan leaves execution byte-identical to the reliable engine:
  /// the injector is never constructed and no fault randomness is forked.
  fault::FaultPlan fault;
  /// Only meaningful when `fault` is enabled: an honest party whose mailbox
  /// has been empty for this many consecutive rounds (its expected message
  /// never arrived) observes the abort event — on_abort(), the paper's abort
  /// semantics — instead of spinning to max_rounds. <= 0 disables timeouts.
  int round_timeout = 6;
  /// How the protocol being executed obtains its OT correlations. The engine
  /// itself is protocol-agnostic and does not act on this; setup helpers and
  /// scenario bodies read it to decide whether to build parties against an
  /// offline CorrelatedRandomness batch (and to leave the hybrid slot empty)
  /// or to install the inline ideal-OT hub. kInline is bit-identical to the
  /// pre-split engine.
  mpc::preproc::PreprocMode preproc = mpc::preproc::PreprocMode::kInline;
};

/// Legacy name for ExecutionOptions.
using EngineConfig = ExecutionOptions;

/// Routing-cost counters for one execution (all updated on the delivery
/// path, so they are exact, not sampled).
struct RoutingStats {
  std::uint64_t messages = 0;            ///< messages routed (all channels)
  std::uint64_t broadcast_messages = 0;  ///< of which broadcasts
  std::uint64_t payload_bytes = 0;       ///< payload bytes as sent (stored once)
  /// Payload bytes the engine actually duplicated (transcript recording only;
  /// zero when record_transcript is off).
  std::uint64_t bytes_copied = 0;
  /// Payload bytes a copy-per-recipient delivery (the pre-mailbox engine)
  /// would have duplicated: one copy per addressee, n per broadcast.
  std::uint64_t bytes_copy_avoided = 0;
};

struct ExecutionResult {
  /// Per-party output; std::nullopt = ⊥ (abort). Index = PartyId.
  std::vector<std::optional<Bytes>> outputs;
  std::set<PartyId> corrupted;
  /// The adversary strategy's own report of having extracted the output.
  bool adversary_learned = false;
  std::optional<Bytes> adversary_output;
  int rounds = 0;
  bool hit_round_cap = false;
  /// Per-round raw message log (only if record_transcript). Rendering to
  /// strings is deferred to transcript_lines().
  std::vector<std::vector<Message>> transcript;
  /// Routing-cost counters (always collected; cheap).
  RoutingStats stats;
  /// Fault-injection counters (all zero when ExecutionOptions::fault is
  /// disabled).
  fault::FaultStats fault_stats;

  /// True iff party pid was honest at the end and output a value (non-⊥).
  [[nodiscard]] bool honest_output_present(PartyId pid) const;

  /// Render the recorded transcript via describe(), one line per message.
  [[nodiscard]] std::vector<std::vector<std::string>> transcript_lines() const;
};

class Engine {
 public:
  /// parties[i] must have id() == i. `functionality` and `adversary` may be
  /// null (no hybrid / all parties honest).
  Engine(std::vector<std::unique_ptr<IParty>> parties,
         std::unique_ptr<IFunctionality> functionality,
         std::unique_ptr<IAdversary> adversary, Rng rng, ExecutionOptions cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run to completion. Must be called at most once.
  ExecutionResult run();

  class Ctx;  // shared AdvContext/FuncContext implementation (internal)

 private:

  std::vector<std::unique_ptr<IParty>> parties_;
  std::unique_ptr<IFunctionality> functionality_;
  std::unique_ptr<IAdversary> adversary_;
  Rng rng_;
  ExecutionOptions cfg_;
  std::unique_ptr<Ctx> ctx_;
};

/// Convenience: run a protocol with no adversary and no hybrid slot.
ExecutionResult run_honest(std::vector<std::unique_ptr<IParty>> parties, Rng rng,
                           ExecutionOptions cfg = {});

}  // namespace fairsfe::sim
