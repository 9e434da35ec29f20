#include "fair/leaky_and.h"

namespace fairsfe::fair {

using sim::Message;
using sim::MsgView;

namespace {
constexpr std::uint8_t kTagPreamble = 61;
constexpr std::uint8_t kTagLeak = 62;

// Messages Π̃ handles itself; everything else is the embedded GK protocol's.
bool is_wrapper_message(const Message& m) {
  if (m.from == sim::kFunc) return false;
  Reader r(m.payload);
  const auto tag = r.u8();
  return tag && (*tag == kTagPreamble || *tag == kTagLeak);
}
}  // namespace

Bytes encode_preamble(std::uint8_t bit) {
  Writer w;
  w.u8(kTagPreamble).u8(bit);
  return w.take();
}

std::optional<std::uint8_t> decode_preamble(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagPreamble) return std::nullopt;
  const auto bit = r.u8();
  if (!bit || !r.at_end()) return std::nullopt;
  return bit;
}

Bytes encode_leak(const std::optional<Bytes>& input) {
  Writer w;
  w.u8(kTagLeak);
  if (input) {
    w.u8(1).blob(*input);
  } else {
    w.u8(0);
  }
  return w.take();
}

std::optional<std::optional<Bytes>> decode_leak(ByteView payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || *tag != kTagLeak) return std::nullopt;
  const auto flag = r.u8();
  if (!flag) return std::nullopt;
  if (*flag == 0) return std::optional<Bytes>{};
  const auto body = r.blob();
  if (!body || !r.at_end()) return std::nullopt;
  return std::optional<Bytes>{*body};
}

namespace {
// The embedded standard 1/4-secure protocol; its parameters are immutable and
// shared by every Π̃ party.
const std::shared_ptr<const GkParams>& inner_gk_params() {
  static const auto params = std::make_shared<const GkParams>(make_gk_and_params(4));
  return params;
}
}  // namespace

LeakyAndParty::LeakyAndParty(sim::PartyId id, Bytes input, Rng rng)
    : PartyBase(id), input_(input), rng_(std::move(rng)), inner_(id, inner_gk_params(), input) {}

std::vector<Message> LeakyAndParty::on_round(int round, MsgView in) {
  std::vector<Message> inner_in;
  std::vector<Message> wrapper_in;
  for (const Message& m : in) {
    (is_wrapper_message(m) ? wrapper_in : inner_in).push_back(m);
  }

  std::vector<Message> out;
  if (calls_ == 0 && id_ == 1) {
    // Honest p2 opens with the 0-bit.
    out.push_back(Message{id_, 0, encode_preamble(0)});
  }
  if (id_ == 0 && !preamble_done_) {
    for (const Message& m : wrapper_in) {
      const auto bit = decode_preamble(m.payload);
      if (!bit) continue;
      preamble_done_ = true;
      if (*bit == 1) {
        // Biased coin: Pr[C = 1] = 1/4 -> reveal x1.
        const bool c = rng_.below(4) == 0;
        out.push_back(Message{id_, 1, encode_leak(c ? std::optional<Bytes>(input_)
                                                    : std::optional<Bytes>{})});
      }
      break;
    }
  }
  ++calls_;

  // Drive the embedded 1/4-secure GK protocol.
  if (!inner_.done()) {
    std::vector<Message> inner_out = inner_.on_round(round, inner_in);
    out.insert(out.end(), inner_out.begin(), inner_out.end());
  }
  if (inner_.done() && !done()) {
    if (const auto y = inner_.output()) {
      finish(*y);
    } else {
      finish_bot();
    }
  }
  return out;
}

void LeakyAndParty::on_abort() {
  if (done()) return;
  inner_.on_abort();
  if (const auto y = inner_.output()) {
    finish(*y);
  } else {
    finish_bot();
  }
}

std::vector<std::unique_ptr<sim::IParty>> make_leaky_and_parties(const Bytes& x0,
                                                                 const Bytes& x1, Rng& rng) {
  std::vector<std::unique_ptr<sim::IParty>> parties;
  parties.push_back(std::make_unique<LeakyAndParty>(0, x0, rng.fork("leaky-p0")));
  parties.push_back(std::make_unique<LeakyAndParty>(1, x1, rng.fork("leaky-p1")));
  return parties;
}

std::unique_ptr<sim::IFunctionality> make_leaky_and_functionality(mpc::NotesPtr notes) {
  return std::make_unique<ShareGenFunc>(*inner_gk_params(), std::move(notes));
}

}  // namespace fairsfe::fair
