// Hybrid ideal-functionality slot.
//
// The paper's protocols are designed in hybrid models (the F^{f',⊥}_sfe- or
// ShareGen-hybrid model) and composed with secure protocols realizing the
// hybrid via the RPD composition theorem. The engine supports one installed
// functionality per execution; parties address it as `kFunc`, it processes
// the messages it received last round and replies next round (a hybrid call
// therefore costs two engine rounds).
//
// "Security with abort" is modeled by `FuncContext::adversary_abort_gate`:
// before outputs are released, the functionality shows the corrupted
// parties' outputs to the adversary, who may then abort the functionality —
// in which case honest parties receive an abort notice instead of output.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "crypto/rng.h"
#include "sim/message.h"

namespace fairsfe::sim {

class FuncContext {
 public:
  virtual ~FuncContext() = default;

  [[nodiscard]] virtual int n() const = 0;
  virtual Rng& rng() = 0;
  [[nodiscard]] virtual const std::set<PartyId>& corrupted() const = 0;

  /// Show `outputs_to_corrupted` to the adversary; returns true if the
  /// adversary instructs the functionality to abort (honest parties get ⊥).
  virtual bool adversary_abort_gate(const std::vector<Message>& outputs_to_corrupted) = 0;
};

class IFunctionality {
 public:
  virtual ~IFunctionality() = default;

  /// Process messages addressed to kFunc last round; return this round's
  /// messages (from == kFunc enforced by the engine). `in` borrows the
  /// engine's round buffer; consume it within the call.
  virtual std::vector<Message> on_round(FuncContext& ctx, int round, MsgView in) = 0;
};

/// Canonical payload tags for functionality traffic, shared by protocols.
namespace functag {
inline constexpr std::uint8_t kInput = 1;   ///< party -> F: evaluation input
inline constexpr std::uint8_t kOutput = 2;  ///< F -> party: output delivery
inline constexpr std::uint8_t kAbort = 3;   ///< F -> party: aborted (⊥)
}  // namespace functag

/// Frames a kOutput payload in place: the tag and a length word come first,
/// the caller writes the body straight after them through body(), and take()
/// fills in the length. A dealer thus writes each body once, already framed;
/// the payload is byte for byte encode_func_output(body).
class FuncOutputWriter {
 public:
  static constexpr std::size_t kHeader = 5;  ///< u8 tag ‖ u32 body length

  /// Reserves room for the header and a body of `body_size` bytes.
  explicit FuncOutputWriter(std::size_t body_size = 0);

  /// Appends to the body (the header is already in place).
  Writer& body() { return w_; }
  /// The framed payload; its body starts at offset kHeader.
  [[nodiscard]] Bytes take();

 private:
  Writer w_;
};

/// Helper encoders for the canonical one-shot SFE-style exchange.
Bytes encode_func_input(ByteView input);
std::optional<Bytes> decode_func_input(ByteView payload);
Bytes encode_func_output(ByteView output);
Bytes encode_func_abort();
/// Returns the output if payload is a kOutput, std::nullopt for kAbort or
/// malformed payloads. The view borrows `payload`: a caller that keeps the
/// output past the payload's lifetime copies it.
std::optional<ByteView> decode_func_output(ByteView payload);
/// True if payload is a kAbort notice.
bool is_func_abort(ByteView payload);

}  // namespace fairsfe::sim
