#include "adversary/penalty_attack.h"

#include "sim/functionality.h"

namespace fairsfe::adversary {

using sim::Message;

PenaltyAdversary::PenaltyAdversary(PenaltyMode mode)
    : AdversaryBase({0}), mode_(mode) {}

std::vector<Message> PenaltyAdversary::on_round(sim::AdvContext& ctx,
                                                const sim::AdvView& view) {
  if (mode_ == PenaltyMode::kNoShow || withheld_) return {};

  std::vector<Message> out = honest_step_all(ctx, view.delivered);

  if (mode_ == PenaltyMode::kWithholdClaim) {
    // The escrow's delivery of y to p1 arrives in this round's consumed
    // traffic. The payload IS the real output — take it and suppress the
    // acknowledgement p1's honest step just produced.
    for (const Message& m : view.delivered) {
      if (m.from != sim::kFunc || m.to != 0) continue;
      const auto y = sim::decode_func_output(m.payload);
      if (y) {
        mark_learned(Bytes(y->begin(), y->end()));
        withheld_ = true;
        return {};
      }
    }
  }

  if (!learned_) {
    const sim::IParty& p1 = ctx.party(0);
    if (p1.done() && p1.output()) mark_learned(*p1.output());
  }
  return out;
}

}  // namespace fairsfe::adversary
