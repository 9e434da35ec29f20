// The honest-party interface of the synchronous execution model.
//
// A party is a deterministic state machine over rounds (all its randomness
// comes from an Rng it owns). In engine round r it consumes the messages
// sent to it in round r-1 and emits its round-r messages. The paper's model
// (Canetti '00 with guaranteed termination) is synchronous, so "a message I
// expected is missing this round" is observable and protocol code treats it
// as the sender having aborted.
//
// `on_abort()` finalizes the party under the assumption that no further
// messages will ever arrive. It implements the continuation the paper uses
// both for real aborts and for the adversary's lock-detection probe ("run the
// protocol on p's state assuming the peer aborted, and see what it outputs").
//
// `clone()` must deep-copy every piece of state the party can still mutate,
// and may share immutable state (parameters, a dealt share body) with the
// original by pointer: driving a clone must never change the original. The
// adversary uses clones to probe hypothetical continuations of corrupted
// parties it controls, which is legitimate since it owns those states.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/message.h"

namespace fairsfe::sim {

class IParty {
 public:
  virtual ~IParty() = default;

  /// Consume last round's messages, emit this round's. Not called once done.
  /// `in` borrows the engine's round buffer; consume it within the call.
  virtual std::vector<Message> on_round(int round, MsgView in) = 0;

  /// Finalize now: no further messages will arrive. Must leave done() == true.
  virtual void on_abort() = 0;

  [[nodiscard]] virtual bool done() const = 0;

  /// The party's protocol output; std::nullopt encodes ⊥ (abort). Only
  /// meaningful once done().
  [[nodiscard]] virtual std::optional<Bytes> output() const = 0;

  [[nodiscard]] virtual std::unique_ptr<IParty> clone() const = 0;

  [[nodiscard]] virtual PartyId id() const = 0;
};

/// CRTP helper supplying clone() via the copy constructor and the common
/// done/output/id plumbing. Derived classes set done_/output_ and implement
/// on_round / on_abort.
template <typename Derived>
class PartyBase : public IParty {
 public:
  explicit PartyBase(PartyId id) : id_(id) {}

  [[nodiscard]] bool done() const final { return done_; }
  [[nodiscard]] std::optional<Bytes> output() const final { return output_; }
  [[nodiscard]] PartyId id() const final { return id_; }

  [[nodiscard]] std::unique_ptr<IParty> clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }

 protected:
  /// Terminate with output y.
  void finish(Bytes y) {
    output_ = std::move(y);
    done_ = true;
  }
  /// Terminate with ⊥.
  void finish_bot() {
    output_ = std::nullopt;
    done_ = true;
  }

  PartyId id_;
  bool done_ = false;
  std::optional<Bytes> output_;
};

}  // namespace fairsfe::sim
