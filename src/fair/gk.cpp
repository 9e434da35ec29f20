#include "fair/gk.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

double GkParams::alpha() const {
  const double base = static_cast<double>(p) * static_cast<double>(domain_size);
  if (variant == Variant::kPolyRange) {
    return 1.0 / (static_cast<double>(p) * base);
  }
  return 1.0 / base;
}

std::size_t GkParams::cap() const {
  if (rounds != 0) return rounds;
  // Pr[i* > cap] = (1-α)^cap ≈ e^{-8}: negligible against 1/p for our sweeps.
  return static_cast<std::size_t>(8.0 / alpha()) + 1;
}

GkParams make_gk_and_params(std::size_t p) {
  GkParams params;
  params.spec = mpc::make_and_spec();
  params.p = p;
  params.variant = GkParams::Variant::kPolyDomain;
  params.sample_x1 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.sample_x2 = [](Rng& rng) { return Bytes{static_cast<std::uint8_t>(rng.bit())}; };
  params.domain_size = 2;
  return params;
}

ShareGenFunc::ShareGenFunc(GkParams params, mpc::NotesPtr notes)
    : params_(std::move(params)), notes_(std::move(notes)) {}

std::vector<Message> ShareGenFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                            MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;
  return mpc::deal_through_gate(ctx, in, 2, notes_, [&](const std::vector<Bytes>& xs) {
    Rng& rng = ctx.rng();
    const Bytes y = params_.spec.eval(xs);

    // i* ~ Geometric(alpha), truncated at the cap.
    const std::size_t cap = params_.cap();
    const double alpha = params_.alpha();
    std::size_t i_star = 1;
    while (i_star < cap && rng.uniform() >= alpha) ++i_star;
    if (notes_) {
      notes_->blobs["y"] = y;
      notes_->vals["i_star"] = i_star;
    }

    const bool range = params_.variant == GkParams::Variant::kPolyRange;
    // f(x1, ŷ) and f(x̂, x2) through one reused argument vector.
    std::vector<Bytes> args = xs;
    auto fake_a = [&] {
      if (range) return params_.sample_range(rng);
      args[0] = xs[0];
      args[1] = params_.sample_x2(rng);
      return params_.spec.eval(args);
    };
    auto fake_b = [&] {
      if (range) return params_.sample_range(rng);
      args[0] = params_.sample_x1(rng);
      args[1] = xs[1];
      return params_.spec.eval(args);
    };
    return deal_auth_stream_payloads(cap, i_star, y, fake_a, fake_b, rng);
  });
}

std::vector<Message> GkParty::start() {
  if (id_ == 1) {
    // p2 opens a_1 immediately; p1 waits for it.
    expecting_ = false;
    return make_opening(1);
  }
  expecting_ = true;
  return {};
}

std::vector<Message> GkParty::exchange(MsgView in) {
  if (!expecting_) {
    // My own opening went out last round; now it is my turn to receive
    // (p2 after opening a_j waits a round for b_j).
    expecting_ = true;
    return {};
  }
  // The opening of the current iteration of my incoming stream.
  const auto value = streams_.reconstruct(j_, in);
  if (!value) {
    // Peer aborted (or cheated): output the last reconstructed value —
    // the randomized-abort guarantee.
    finish(last_value_);
    return {};
  }
  last_value_ = *value;
  if (id_ == 0) {
    // p1 reconstructs a_j, then opens b_j. After the final iteration its
    // value is a_r = y. The round after sending is a gap round (the peer
    // is processing), so expecting_ flips off.
    std::vector<Message> out = make_opening(j_);
    if (j_ == streams_.rounds()) {
      finish(last_value_);
    } else {
      ++j_;
      expecting_ = false;
    }
    return out;
  }
  // p2 reconstructed b_j; move to iteration j+1 and open a_{j+1}.
  if (j_ == streams_.rounds()) {
    finish(last_value_);
    return {};
  }
  ++j_;
  expecting_ = false;
  return make_opening(j_);
}

std::vector<std::unique_ptr<sim::IParty>> make_gk_parties(const GkParams& params,
                                                          const Bytes& x0, const Bytes& x1,
                                                          Rng& rng) {
  // The parties draw no randomness of their own, but the per-party forks
  // still advance `rng`'s fork counter exactly as callers expect.
  rng.fork("gk-p0");
  rng.fork("gk-p1");
  const auto shared = std::make_shared<const GkParams>(params);
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<GkParty>(0, shared, x0));
  parties.push_back(std::make_unique<GkParty>(1, shared, x1));
  return parties;
}

}  // namespace fairsfe::fair
