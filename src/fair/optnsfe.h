// ΠOptnSFE — the optimally γ-fair multi-party SFE protocol (paper §4.2,
// Appendix B).
//
// Phase 1 evaluates, via unfair SFE, the private-output functionality
// F^{f,⊥}_priv-sfe: it computes y = f(x₁..xₙ), signs it (one-time Lamport
// key pair generated inside the functionality), picks a uniform i* ∈ [n],
// and privately hands (y, σ) to p_{i*} and ⊥ to everyone else; every party
// receives the verification key vk. Phase 2 is a single broadcast round:
// everyone announces its phase-1 value, and any validly signed y is adopted.
//
// A t-adversary learns y early only by having corrupted p_{i*} (probability
// t/n); withholding the broadcast then yields E10. Otherwise the honest
// p_{i*}'s broadcast reaches everyone (once it is out, rushing does not help)
// and the best event is E11 — giving the tight bound
// (t·γ10 + (n−t)·γ11)/n of Lemma 11 and the optimum of Lemma 13.
#pragma once

#include <memory>
#include <vector>

#include "crypto/lamport.h"
#include "crypto/rng.h"
#include "mpc/sfe_functionalities.h"
#include "sim/party.h"

namespace fairsfe::fair {

/// F^{f,⊥}_priv-sfe. Unfair (abort gate after corrupted outputs). Records
/// "y" (blob) and "i_star" into notes.
class PrivOutputFunc final : public sim::IFunctionality {
 public:
  explicit PrivOutputFunc(mpc::SfeSpec spec, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  mpc::SfeSpec spec_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

class OptNParty final : public sim::PartyBase<OptNParty> {
 public:
  OptNParty(sim::PartyId id, Bytes input);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

 private:
  friend struct LamportPartyPeek;  // the clone-contract test reads vk_

  enum class Step { kSendInput, kAwaitFuncOutput, kAwaitBroadcasts };

  Bytes input_;

  Step step_ = Step::kSendInput;
  std::shared_ptr<const Bytes> vk_;  // dealt in phase 1; clones share it
  std::optional<std::pair<Bytes, Bytes>> my_value_;  // (y, σ) if I am p_{i*}
};

/// Build the n ΠOptnSFE parties for the given inputs. A party reads no part
/// of the spec: only PrivOutputFunc evaluates it.
std::vector<std::unique_ptr<sim::IParty>> make_optn_parties(const std::vector<Bytes>& inputs,
                                                            Rng& rng);

/// Wire helpers shared with the Lemma 18 protocol.
Bytes encode_announcement(const std::optional<std::pair<Bytes, Bytes>>& value);
/// Returns (y, σ) if the payload announces a value, std::nullopt otherwise.
/// Both views borrow `payload`.
std::optional<std::pair<ByteView, ByteView>> decode_announcement(ByteView payload);
/// Parse a PrivOutputFunc per-party output body: (has_value, y, σ, vk), as
/// views that borrow `body`. A party copies vk once, into the shared_ptr its
/// clones share.
struct PrivOutput {
  bool has_value = false;
  ByteView y;
  ByteView sig;
  ByteView vk;
};
std::optional<PrivOutput> decode_priv_output(ByteView body);

}  // namespace fairsfe::fair
