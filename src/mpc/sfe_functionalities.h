// Function specifications and the generic SFE ideal functionalities.
//
// `SfeSpec` is the function-under-evaluation description shared by every
// protocol and functionality in src/fair: n parties, a global public output
// (the paper's wlog normal form), and per-party default inputs used by the
// "on abort, substitute a default input and compute locally" rule.
//
// `SfeFunc` implements both of the paper's ideal boxes over it:
//   * unfair mode — F^{f,⊥}_sfe: the adversary sees corrupted outputs first
//     and may then abort, leaving honest parties with ⊥;
//   * fair mode — Fsfe: the adversary may abort only before outputs exist;
//     otherwise all parties receive the output simultaneously.
//
// `Notes` is a ground-truth side channel: functionalities record hidden
// per-run values (the computed y, the random index i*, abort flags) that the
// experiment harness uses to classify events — it is never visible to
// parties or the adversary.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "circuit/circuit.h"
#include "sim/functionality.h"

namespace fairsfe::mpc {

struct Notes {
  std::map<std::string, std::uint64_t> vals;
  std::map<std::string, Bytes> blobs;
};
using NotesPtr = std::shared_ptr<Notes>;

struct SfeSpec {
  std::size_t n = 2;
  /// Global public output y = f(x_1, ..., x_n).
  std::function<Bytes(const std::vector<Bytes>&)> eval;
  /// Default input substituted for an aborting party.
  std::vector<Bytes> default_inputs;

  /// y under substitution of defaults for every party not in `actual_from`.
  [[nodiscard]] Bytes eval_with_defaults(const std::vector<Bytes>& inputs,
                                         const std::set<std::size_t>& actual_from) const;
};

/// f(x1, ..., xn) = x1 ‖ ... ‖ xn with fixed-width inputs (Lemma 12's
/// function; for n = 2 this subsumes the swap function of Theorem 4).
SfeSpec make_concat_spec(std::size_t n, std::size_t bytes_each);
/// Two-party single-bit AND (the Section 5 function). Inputs are 1 byte 0/1.
SfeSpec make_and_spec();
/// Millionaires: 1 iff x1 > x2, inputs little-endian u64.
SfeSpec make_millionaires_spec();
/// n-party max of little-endian u64 inputs.
SfeSpec make_max_spec(std::size_t n);
/// Wrap a boolean circuit as a spec (inputs are packed bit vectors).
SfeSpec make_circuit_spec(const circuit::Circuit& c);

enum class SfeMode {
  kUnfairAbort,  ///< F^{f,⊥}_sfe — abort allowed after corrupted outputs
  kFair,         ///< Fsfe — simultaneous delivery, abort only before outputs
};

/// Generic one-shot SFE functionality: collects one input per party in the
/// round the first input arrives, computes, and delivers (global output).
/// Missing or malformed inputs abort the evaluation for everyone.
class SfeFunc final : public sim::IFunctionality {
 public:
  SfeFunc(SfeSpec spec, SfeMode mode, NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  SfeSpec spec_;
  SfeMode mode_;
  NotesPtr notes_;
  bool fired_ = false;
};

/// The one-shot round of a dealer functionality with an unfair abort gate
/// (the ShareGen-style hybrids in src/fair/): collect one input per party,
/// the first well-formed one each. If any is missing, every party gets an
/// abort notice. Otherwise deal(inputs) returns one framed output payload per
/// party, each written through sim::FuncOutputWriter; the corrupted parties'
/// payloads pass the adversary's abort gate in send order, and honest
/// parties get an abort notice if it fires. Records "phase1_aborted".
using Dealer = std::function<std::vector<Bytes>(const std::vector<Bytes>& inputs)>;
std::vector<sim::Message> deal_through_gate(sim::FuncContext& ctx, sim::MsgView in,
                                            std::size_t n, const NotesPtr& notes,
                                            const Dealer& deal);

}  // namespace fairsfe::mpc
