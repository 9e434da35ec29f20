#include "fair/dummy_ideal.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

DummyIdealParty::DummyIdealParty(sim::PartyId id, Bytes input)
    : PartyBase(id), input_(std::move(input)) {}

std::vector<Message> DummyIdealParty::on_round(int /*round*/,
                                               MsgView in) {
  if (!sent_) {
    sent_ = true;
    return {Message{id_, sim::kFunc, sim::encode_func_input(input_)}};
  }
  const Message* fm = first_from(in, sim::kFunc);
  if (fm == nullptr) return {};
  const auto y = sim::decode_func_output(fm->payload);
  if (y) {
    finish(Bytes(y->begin(), y->end()));
  } else {
    finish_bot();
  }
  return {};
}

void DummyIdealParty::on_abort() {
  if (!done()) finish_bot();
}

std::vector<std::unique_ptr<sim::IParty>> make_dummy_parties(const std::vector<Bytes>& inputs) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.reserve(inputs.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    parties.push_back(
        std::make_unique<DummyIdealParty>(static_cast<sim::PartyId>(p), inputs[p]));
  }
  return parties;
}

}  // namespace fairsfe::fair
