// The artificial protocol of Lemma 18: optimally γ-fair but *not*
// utility-balanced.
//
// Phase 1 is ΠOptnSFE's private-output evaluation (PrivOutputFunc): p_{i*}
// holds (y, σ). Then:
//   step 2 — every party sends the flag "0" to all others;
//   step 3 — if p_{i*} received only 0s it broadcasts (y, σ); otherwise it
//            tosses a fair coin: heads → broadcast, tails → send (y, σ) only
//            to the parties that did NOT send a 0;
//   step 4 — every party that received a validly signed value outputs it.
//
// A single corrupted party that sends "1" in step 2 receives the output
// point-to-point on tails while the other honest parties get nothing:
// u(A₁) = γ10/n + (n-1)/n · (γ10+γ11)/2, which together with the standard
// (n-1)-adversary breaks the balance bound of Lemma 14 — yet the best
// attacker still cannot beat ((n-1)γ10 + γ11)/n, so the protocol stays
// optimally fair. Experiment E08.
#pragma once

#include <memory>
#include <vector>

#include "fair/optnsfe.h"

namespace fairsfe::fair {

class Lemma18Party final : public sim::PartyBase<Lemma18Party> {
 public:
  Lemma18Party(sim::PartyId id, std::size_t n, Bytes input, Rng rng);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

 private:
  friend struct LamportPartyPeek;  // the clone-contract test reads vk_

  enum class Step { kSendInput, kAwaitFuncOutput, kAwaitFlags, kAwaitValue };

  std::size_t n_;  // the one part of the spec a party reads
  Bytes input_;
  Rng rng_;

  Step step_ = Step::kSendInput;
  std::shared_ptr<const Bytes> vk_;  // dealt in phase 1; clones share it
  std::optional<std::pair<Bytes, Bytes>> my_value_;
};

/// The step-2 flag message ("0" when honest, "1" for the Lemma 18 deviator).
Bytes encode_flag(std::uint8_t flag);
std::optional<std::uint8_t> decode_flag(ByteView payload);

std::vector<std::unique_ptr<sim::IParty>> make_lemma18_parties(
    const mpc::SfeSpec& spec, const std::vector<Bytes>& inputs, Rng& rng);

}  // namespace fairsfe::fair
