// PreprocMode: how a protocol execution obtains its OT correlations.
//
// The paper analyzes protocols in the OT-hybrid model, so utilities and
// fairness verdicts must be invariant under substituting *how* the
// correlations are produced (the RPD composition claim, DESIGN.md §10).
// This enum names the three sanctioned substitutions:
//
//   kInline        — ideal OT calls inside the measured run (the classic
//                    OT-hybrid execution; bit-identical to the pre-split
//                    engine and the default everywhere).
//   kOfflineIdeal  — a trusted dealer (preproc::IdealDealer) hands out Beaver
//                    triples and random-OT pairs before the run; the online
//                    phase is XORs plus one broadcast per AND layer.
//   kOfflineOt     — the same offline batch, but produced by running the real
//                    OtHub rounds up front (preproc::OtDrivenProvider),
//                    proving the dealer substitution is faithful.
//
// GmwConfig::preproc_mode selects one per GMW configuration; E19 runs all
// three on the same seeds, and E20 the Beaver path under the sliced runner.
#pragma once

#include <string_view>

namespace fairsfe::mpc::preproc {

enum class PreprocMode {
  kInline,
  kOfflineIdeal,
  kOfflineOt,
};

constexpr std::string_view to_string(PreprocMode m) {
  switch (m) {
    case PreprocMode::kInline: return "inline";
    case PreprocMode::kOfflineIdeal: return "offline_ideal";
    case PreprocMode::kOfflineOt: return "offline_ot";
  }
  return "inline";
}

/// True for the modes that consume a CorrelatedRandomness batch.
constexpr bool is_offline(PreprocMode m) { return m != PreprocMode::kInline; }

}  // namespace fairsfe::mpc::preproc
