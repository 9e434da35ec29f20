#include "fair/partial_1p.h"

#include "util/check.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

Partial1pParams make_partial_1p_and_params(std::size_t p) {
  Partial1pParams params;
  params.spec = mpc::make_and_spec();
  params.p = p;
  params.sample_x1 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.sample_x2 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  return params;
}

Partial1pShareGenFunc::Partial1pShareGenFunc(Partial1pParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {
  FAIRSFE_CHECK(params_.p >= 1, "Partial1pShareGenFunc: p must be >= 1");
}

std::vector<Message> Partial1pShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                                     MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;
  return mpc::deal_through_gate(ctx, in, 2, notes_, [&](const std::vector<Bytes>& xs) {
    Rng& rng = ctx.rng();
    const Bytes y = params_.spec.eval(xs);

    // The round-sampling trick: i* uniform over [1, p] — no geometric tail,
    // exactly p iterations, unfair-window probability exactly 1/p.
    const std::size_t p = params_.p;
    const std::size_t i_star = 1 + static_cast<std::size_t>(rng.below(p));
    if (notes_) {
      notes_->blobs["y"] = y;
      notes_->vals["i_star"] = i_star;
    }

    // Both fakes resampled from the function's output distribution on a
    // fresh peer input (the kPolyDomain shape, on both sides).
    auto fake_a = [&] { return params_.spec.eval({xs[0], params_.sample_x2(rng)}); };
    auto fake_b = [&] { return params_.spec.eval({params_.sample_x1(rng), xs[1]}); };
    return deal_auth_stream_payloads(p, i_star, y, fake_a, fake_b, rng);
  });
}

std::vector<Message> Partial1pParty::exchange(MsgView in) {
  // My opening of iteration j_ went out last round; the peer's opening of the
  // same iteration must be in this round's input.
  const auto value = streams_.reconstruct(j_, in);
  if (!value) {
    // Peer withheld its opening (or cheated): output the last reconstructed
    // value — the randomized-abort guarantee.
    finish(last_value_);
    return {};
  }
  last_value_ = *value;
  if (j_ == streams_.rounds()) {
    // v_p = y by construction (i* ≤ p always).
    finish(last_value_);
    return {};
  }
  ++j_;
  return make_opening(j_);
}

std::vector<std::unique_ptr<sim::IParty>> make_partial_1p_parties(
    const Partial1pParams& params, const Bytes& x0, const Bytes& x1, Rng& rng) {
  // No party randomness; the forks keep `rng`'s fork counter where callers
  // expect it.
  rng.fork("p1p-p0");
  rng.fork("p1p-p1");
  const auto shared = std::make_shared<const Partial1pParams>(params);
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<Partial1pParty>(0, shared, x0));
  parties.push_back(std::make_unique<Partial1pParty>(1, shared, x1));
  return parties;
}

}  // namespace fairsfe::fair
