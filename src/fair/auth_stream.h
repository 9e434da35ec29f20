// Dealt share streams: the ShareGen state of the 1/p-secure protocols
// (Gordon–Katz in fair/gk.h and fair/gk_multi.h, round-sampling in
// fair/partial_1p.h), kept read-only and shared.
//
// The two-party dealer fixes two value streams,
//     a_j = fake for j < i*, a_j = y for j ≥ i*   (reconstructed by p1),
//     b_j = fake for j < i*, b_j = y for j ≥ i*   (reconstructed by p2),
// shares every value with deal_auth_share2 (crypto/auth_share.h), which
// writes each share record in place, and sends party i the body
//     u32 r ‖ blob(fallback) ‖ for j = 1..r: blob(⟨a_j⟩ᵢ) ‖ blob(⟨b_j⟩ᵢ).
//
// Eager validation, lazy parse: a receiving party checks the whole body once,
// at receipt and without allocating, so a malformed body is rejected exactly
// where a full parse would reject it. It then keeps the body behind a
// shared_ptr with a table of record offsets (DealtBody) and reads round j's
// share as views into the body (AuthShare2::parse) only when it opens or
// reconstructs round j. A party's clone() — one per adversary probe — copies
// two pointers instead of 2·r parsed shares.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/auth_share.h"
#include "crypto/rng.h"
#include "mpc/sfe_functionalities.h"
#include "sim/functionality.h"
#include "sim/party.h"
#include "util/check.h"

namespace fairsfe::fair {

/// Both two-party bodies (index = party id), each written once and framed in
/// place as a func-output payload (sim::FuncOutputWriter): what a dealer
/// hands mpc::deal_through_gate. fake_a / fake_b draw one fake value of the
/// a- / b-stream. Rng order: a_0, b_0, then per round j the fakes a_j, b_j
/// (only while j < i*), then ⟨a_j⟩, ⟨b_j⟩.
std::vector<Bytes> deal_auth_stream_payloads(std::size_t rounds, std::size_t i_star,
                                             const Bytes& y,
                                             const std::function<Bytes()>& fake_a,
                                             const std::function<Bytes()>& fake_b, Rng& rng);

/// A received dealer body, read-only and shared between a party and its
/// clones, with the start offset of each record.
class DealtBody {
 public:
  DealtBody() = default;
  DealtBody(Bytes body, std::vector<std::uint32_t> offsets);

  [[nodiscard]] std::size_t records() const { return offsets_ ? offsets_->size() : 0; }
  /// A reader positioned at record k (< records()). It borrows this body.
  [[nodiscard]] Reader at(std::size_t k) const;

 private:
  std::shared_ptr<const Bytes> body_;
  std::shared_ptr<const std::vector<std::uint32_t>> offsets_;
};

/// One party's half of the two-party streams.
class AuthStreams {
 public:
  /// Empty streams: rounds() == 0, nothing to open or reconstruct.
  AuthStreams() = default;

  /// Validate a functionality payload for party `id` (p1 = 0 reconstructs
  /// the a-stream and opens the b-stream; p2 the reverse). std::nullopt for
  /// an abort notice or any malformed part.
  static std::optional<AuthStreams> receive(ByteView payload, sim::PartyId id);

  [[nodiscard]] std::size_t rounds() const { return body_.records() / 2; }
  /// The unshared fallback value a_0 / b_0.
  [[nodiscard]] Bytes fallback() const;
  /// The opening of round j of my outgoing stream, addressed to the peer;
  /// empty if j is not in [1, rounds()].
  [[nodiscard]] std::vector<sim::Message> opening(std::size_t j) const;
  /// Round j of my incoming stream, from the peer's opening in `in`;
  /// std::nullopt if that opening is missing or fails its MACs.
  [[nodiscard]] std::optional<Bytes> reconstruct(std::size_t j, sim::MsgView in) const;

 private:
  AuthStreams(DealtBody body, sim::PartyId id) : body_(std::move(body)), id_(id) {}
  /// The record of round j of my incoming or outgoing stream.
  [[nodiscard]] ByteView record(std::size_t j, bool incoming) const;

  DealtBody body_;  ///< records: the fallback, then ⟨a_j⟩, ⟨b_j⟩ for j = 1..r
  sim::PartyId id_ = 0;
};

/// Opening wire format: (iteration j, the AuthShare2 opening bytes). The
/// decoded opening is a view into `payload`.
Bytes encode_gk_opening(std::size_t j, ByteView opening);
std::optional<std::pair<std::size_t, ByteView>> decode_gk_opening(ByteView payload);

/// What the two-party stream parties (GkParty, Partial1pParty) share: send the
/// input to ShareGen, receive the streams (a malformed body ends the run with
/// the default evaluation), then run Derived's opening schedule —
/// Derived::start() emits the messages of the receipt round and
/// Derived::exchange(in) those of every later round. On abort the party
/// outputs the last value it reconstructed: the randomized-abort guarantee.
template <typename Derived, typename Params>
class AuthStreamParty : public sim::PartyBase<Derived> {
 public:
  AuthStreamParty(sim::PartyId id, std::shared_ptr<const Params> params, Bytes input)
      : sim::PartyBase<Derived>(id), params_(std::move(params)), input_(std::move(input)) {
    FAIRSFE_CHECK(id == 0 || id == 1, "AuthStreamParty: protocol is 2-party");
  }

  std::vector<sim::Message> on_round(int /*round*/, sim::MsgView in) final {
    switch (step_) {
      case Step::kSendInput:
        step_ = Step::kAwaitShares;
        return {sim::Message{this->id_, sim::kFunc, sim::encode_func_input(input_)}};
      case Step::kAwaitShares: {
        const sim::Message* fm = sim::first_from(in, sim::kFunc);
        if (fm == nullptr) return {};
        auto streams = AuthStreams::receive(fm->payload, this->id_);
        if (!streams) {
          finish_with_default();
          return {};
        }
        streams_ = std::move(*streams);
        last_value_ = streams_.fallback();
        step_ = Step::kIterate;
        return static_cast<Derived*>(this)->start();
      }
      case Step::kIterate:
        return static_cast<Derived*>(this)->exchange(in);
    }
    return {};
  }

  void on_abort() final {
    if (this->done()) return;
    if (step_ == Step::kIterate) {
      this->finish(last_value_);
    } else {
      finish_with_default();
    }
  }

  /// Adversary-visible state (the adversary owns corrupted parties): the last
  /// reconstructed value and the current iteration. Used by the attack
  /// strategies in src/adversary/.
  [[nodiscard]] const Bytes& last_value() const { return last_value_; }
  [[nodiscard]] std::size_t iteration() const { return j_; }
  [[nodiscard]] bool stream_started() const { return step_ == Step::kIterate; }

  /// The opening message this party would send for iteration j of its
  /// outgoing stream (used by attack strategies that deviate selectively).
  [[nodiscard]] std::vector<sim::Message> make_opening(std::size_t j) const {
    return streams_.opening(j);
  }

 protected:
  std::shared_ptr<const Params> params_;
  Bytes input_;
  std::size_t j_ = 1;    ///< the iteration in progress
  Bytes last_value_;     ///< the last reconstructed value (at first, the fallback)
  AuthStreams streams_;  ///< my halves of both streams (shared, read-only)

 private:
  enum class Step { kSendInput, kAwaitShares, kIterate };

  void finish_with_default() {
    std::vector<Bytes> xs = params_->spec.default_inputs;
    xs[static_cast<std::size_t>(this->id_)] = input_;
    this->finish(params_->spec.eval(xs));
  }

  Step step_ = Step::kSendInput;
};

}  // namespace fairsfe::fair
