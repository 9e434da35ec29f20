// Multi-party partial fairness — the Beimel–Lindell–Omri–Orlov extension of
// 1/p-security to n parties ([3] in the paper, CRYPTO'11), in the simplified
// one-stream form that preserves the headline shape.
//
// ShareGen picks i* ~ Geometric(α) and prepares values v_0, v_1, ..., v_r
// (fake draws before i*, the true y from i* on). Each v_j (j ≥ 1) is dealt
// as an n-of-n XOR sharing with hash commitments binding every summand.
// Reconstruction runs one broadcast round per j: all parties announce their
// round-j summands; if any share is missing or fails its commitment the
// protocol ends and everyone outputs the *last reconstructed* value — the
// randomized-abort guarantee of F^{f,$}, now multi-party.
//
// A rushing coalition reads the honest round-j summands before deciding
// whether to withhold its own, so it always holds v_j while honest parties
// hold v_{j-1}: the abort is unfair exactly when j = i*, and the truncated
// geometric keeps that probability at most ≈ 1/p for *any* coalition size
// 1 ≤ t ≤ n-1 (the full [3] construction additionally improves parameters
// below the 2n/3 corruption threshold — see DESIGN.md §6).
#pragma once

#include <memory>

#include "fair/gk.h"

namespace fairsfe::fair {

struct GkMultiParams {
  mpc::SfeSpec spec;  ///< n-party, global output
  std::size_t p = 2;
  /// Fresh uniform inputs for the fake draws v_j = f(sample()).
  std::function<std::vector<Bytes>(Rng&)> sample_inputs;
  std::size_t domain_size = 2;  ///< effective output-guessing domain
  std::size_t rounds = 0;       ///< 0 = auto cap

  [[nodiscard]] double alpha() const {
    return 1.0 / (static_cast<double>(p) * static_cast<double>(domain_size));
  }
  [[nodiscard]] std::size_t cap() const {
    return rounds != 0 ? rounds : static_cast<std::size_t>(8.0 / alpha()) + 1;
  }
};

/// n-party AND of single-bit inputs, the small-domain workload of E16.
GkMultiParams make_gk_multi_and_params(std::size_t n, std::size_t p);

/// The multi-party ShareGen functionality. Records "y", "i_star" into notes.
class MultiShareGenFunc final : public sim::IFunctionality {
 public:
  explicit MultiShareGenFunc(GkMultiParams params, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  GkMultiParams params_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

class GkMultiParty final : public sim::PartyBase<GkMultiParty> {
 public:
  GkMultiParty(sim::PartyId id, std::shared_ptr<const GkMultiParams> params, Bytes input);

  std::vector<sim::Message> on_round(int round, sim::MsgView in) override;
  void on_abort() override;

 private:
  enum class Step { kSendInput, kAwaitShares, kIterate };

  void finish_with_default();
  /// Field k of my round-j record: 0 = my XOR summand of v_j, 1 = its nonce,
  /// 2 + p = the commitment of party p's round-j summand.
  [[nodiscard]] ByteView field(std::size_t j, std::size_t k) const;
  [[nodiscard]] sim::Message broadcast_share(std::size_t j) const;

  std::shared_ptr<const GkMultiParams> params_;
  Bytes input_;

  Step step_ = Step::kSendInput;
  std::size_t j_ = 1;
  Bytes last_value_;
  /// My ShareGen body, shared read-only with my clones. Record 0 is the
  /// fallback v_0; record j holds field(j, ·) for j = 1..r.
  DealtBody body_;
};

std::vector<std::unique_ptr<sim::IParty>> make_gk_multi_parties(
    const GkMultiParams& params, const std::vector<Bytes>& inputs, Rng& rng);

/// Round-j summand broadcast wire format. The decoded summand and nonce are
/// views into `payload`.
Bytes encode_gk_multi_share(std::size_t j, ByteView summand, ByteView nonce);
struct GkMultiShare {
  std::size_t j = 0;
  ByteView summand;
  ByteView nonce;
};
std::optional<GkMultiShare> decode_gk_multi_share(ByteView payload);
/// The commitment binding a summand, H("gk-multi" ‖ j ‖ nonce ‖ summand) =
/// sha256_labeled("gk-multi", u64 j ‖ blob(nonce) ‖ blob(summand)), into
/// out[0..32). The input is built on the stack; with a 16-byte nonce and a
/// summand of up to 11 bytes it is one SHA-256 block.
void gk_multi_share_hash(std::size_t j, ByteView nonce, ByteView summand, std::uint8_t* out);

}  // namespace fairsfe::fair
