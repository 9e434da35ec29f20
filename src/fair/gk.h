// The Gordon–Katz partially fair ("1/p-secure") two-party protocols
// [GK, Eurocrypt'10], analysed by the paper in Section 5 / Appendix C.
//
// Structure (ShareGen-hybrid): the functionality picks a switch round
// i* ~ Geometric(α) (truncated at the round cap) and prepares two value
// streams of authenticated sharings,
//     a_j = fake for j < i*, a_j = y for j ≥ i*   (delivered to p1),
//     b_j = fake for j < i*, b_j = y for j ≥ i*   (delivered to p2),
// plus unshared fallback values a_0 / b_0. Reconstruction alternates: in
// iteration j, p2 first opens a_j towards p1, then p1 opens b_j towards p2.
// On abort, a party outputs the last value it reconstructed — which is the
// randomized-abort guarantee F^{f,$}_sfe (Appendix C.2): an early abort
// replaces the honest output by a fresh fake draw.
//
// Variants: kPolyDomain fakes a_j = f(x1, ŷ) with ŷ uniform over p2's
// (polynomial-size) input domain, α = 1/(p·|Y|) (Theorem 23, O(p·|Y|)
// rounds); kPolyRange fakes uniform range elements, α = 1/(p²·|Z|)
// (Theorem 24, O(p²·|Z|) rounds).
//
// Utility shape (experiment E10): under ~γ = (0, 0, 1, 0) the best attacker
// aborts exactly at i* and earns ≤ 1/p.
#pragma once

#include <memory>
#include <vector>

#include "fair/auth_stream.h"
#include "sim/party.h"

namespace fairsfe::fair {

struct GkParams {
  enum class Variant { kPolyDomain, kPolyRange };

  mpc::SfeSpec spec;  ///< must be two-party
  std::size_t p = 2;  ///< the 1/p-security target
  Variant variant = Variant::kPolyDomain;
  std::function<Bytes(Rng&)> sample_x1;     ///< uniform element of p1's domain
  std::function<Bytes(Rng&)> sample_x2;     ///< uniform element of p2's domain
  std::function<Bytes(Rng&)> sample_range;  ///< uniform range element (kPolyRange)
  std::size_t domain_size = 2;  ///< |Y| (kPolyDomain) or |Z| (kPolyRange)
  std::size_t rounds = 0;       ///< explicit round cap; 0 = auto

  [[nodiscard]] double alpha() const;
  [[nodiscard]] std::size_t cap() const;
};

/// Ready-made parameters for the single-bit AND function (Section 5's
/// example; with p = 4 this is the "standard 1/4-secure protocol").
GkParams make_gk_and_params(std::size_t p);

/// ShareGen functionality. Unfair abort gate. Records "y" (blob), "i_star".
class ShareGenFunc final : public sim::IFunctionality {
 public:
  explicit ShareGenFunc(GkParams params, mpc::NotesPtr notes = nullptr);

  std::vector<sim::Message> on_round(sim::FuncContext& ctx, int round,
                                     sim::MsgView in) override;

 private:
  GkParams params_;
  mpc::NotesPtr notes_;
  bool fired_ = false;
};

/// Alternating schedule: in iteration j, p2 opens a_j, then p1 reconstructs
/// it and opens b_j.
class GkParty final : public AuthStreamParty<GkParty, GkParams> {
 public:
  using AuthStreamParty::AuthStreamParty;

 private:
  friend AuthStreamParty;
  std::vector<sim::Message> start();
  std::vector<sim::Message> exchange(sim::MsgView in);

  bool expecting_ = false;  // p1: waiting for a_j; p2: waiting for b_j
};

/// Build the two GK parties for inputs (x1, x2); pair with ShareGenFunc.
std::vector<std::unique_ptr<sim::IParty>> make_gk_parties(const GkParams& params,
                                                          const Bytes& x0, const Bytes& x1,
                                                          Rng& rng);

}  // namespace fairsfe::fair
