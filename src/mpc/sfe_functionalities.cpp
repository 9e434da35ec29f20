#include "mpc/sfe_functionalities.h"

#include <set>

#include "circuit/builder.h"
#include "util/check.h"

namespace fairsfe::mpc {

Bytes SfeSpec::eval_with_defaults(const std::vector<Bytes>& inputs,
                                  const std::set<std::size_t>& actual_from) const {
  std::vector<Bytes> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = actual_from.count(i) ? inputs[i] : default_inputs[i];
  }
  return eval(xs);
}

SfeSpec make_concat_spec(std::size_t n, std::size_t bytes_each) {
  SfeSpec spec;
  spec.n = n;
  spec.eval = [n, bytes_each](const std::vector<Bytes>& xs) {
    Bytes out;
    out.reserve(n * bytes_each);
    for (const Bytes& x : xs) {
      Bytes part = x;
      part.resize(bytes_each, 0);
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  spec.default_inputs.assign(n, Bytes(bytes_each, 0));
  return spec;
}

SfeSpec make_and_spec() {
  SfeSpec spec;
  spec.n = 2;
  spec.eval = [](const std::vector<Bytes>& xs) {
    const std::uint8_t a = xs[0].empty() ? 0 : (xs[0][0] & 1);
    const std::uint8_t b = xs[1].empty() ? 0 : (xs[1][0] & 1);
    return Bytes{static_cast<std::uint8_t>(a & b)};
  };
  spec.default_inputs.assign(2, Bytes{0});
  return spec;
}

namespace {
std::uint64_t u64_of(const Bytes& b) {
  Reader r(b);
  return r.u64().value_or(0);
}
Bytes u64_bytes(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}
}  // namespace

SfeSpec make_millionaires_spec() {
  SfeSpec spec;
  spec.n = 2;
  spec.eval = [](const std::vector<Bytes>& xs) {
    return Bytes{static_cast<std::uint8_t>(u64_of(xs[0]) > u64_of(xs[1]) ? 1 : 0)};
  };
  spec.default_inputs.assign(2, u64_bytes(0));
  return spec;
}

SfeSpec make_max_spec(std::size_t n) {
  SfeSpec spec;
  spec.n = n;
  spec.eval = [](const std::vector<Bytes>& xs) {
    std::uint64_t best = 0;
    for (const Bytes& x : xs) best = std::max(best, u64_of(x));
    return u64_bytes(best);
  };
  spec.default_inputs.assign(n, u64_bytes(0));
  return spec;
}

SfeSpec make_circuit_spec(const circuit::Circuit& c) {
  SfeSpec spec;
  spec.n = c.num_parties();
  // Copy the circuit into the closure (shared, immutable).
  auto shared = std::make_shared<const circuit::Circuit>(c);
  spec.eval = [shared](const std::vector<Bytes>& xs) {
    std::vector<std::vector<bool>> bits(shared->num_parties());
    for (std::size_t p = 0; p < bits.size(); ++p) {
      bits[p] = circuit::bytes_to_bits(xs[p], shared->input_width(p));
    }
    return circuit::bits_to_bytes(shared->eval(bits));
  };
  for (std::size_t p = 0; p < spec.n; ++p) {
    spec.default_inputs.push_back(Bytes((c.input_width(p) + 7) / 8, 0));
  }
  return spec;
}

SfeFunc::SfeFunc(SfeSpec spec, SfeMode mode, NotesPtr notes)
    : spec_(std::move(spec)), mode_(mode), notes_(std::move(notes)) {}

std::vector<sim::Message> SfeFunc::on_round(sim::FuncContext& ctx, int /*round*/,
                                            sim::MsgView in) {
  if (fired_ || in.empty()) return {};
  fired_ = true;

  std::vector<std::optional<Bytes>> inputs(spec_.n);
  for (const sim::Message& m : in) {
    if (m.from < 0 || m.from >= static_cast<sim::PartyId>(spec_.n)) continue;
    const auto x = sim::decode_func_input(m.payload);
    if (x && !inputs[static_cast<std::size_t>(m.from)]) {
      inputs[static_cast<std::size_t>(m.from)] = *x;
    }
  }

  std::vector<sim::Message> out;
  bool complete = true;
  for (const auto& x : inputs) {
    if (!x) complete = false;
  }
  if (!complete) {
    // A party failed to provide input: the evaluation aborts for everyone
    // before anything is computed.
    if (notes_) notes_->vals["sfe_aborted_pre"] = 1;
    for (std::size_t p = 0; p < spec_.n; ++p) {
      out.push_back(sim::Message{sim::kFunc, static_cast<sim::PartyId>(p),
                                 sim::encode_func_abort()});
    }
    return out;
  }

  std::vector<Bytes> xs(spec_.n);
  for (std::size_t i = 0; i < spec_.n; ++i) xs[i] = *inputs[i];
  const Bytes y = spec_.eval(xs);
  if (notes_) notes_->blobs["sfe_y"] = y;

  if (mode_ == SfeMode::kFair) {
    // The adversary may abort without having seen anything.
    const bool abort = ctx.adversary_abort_gate({});
    if (notes_) notes_->vals["sfe_aborted"] = abort ? 1 : 0;
    for (std::size_t p = 0; p < spec_.n; ++p) {
      out.push_back(sim::Message{sim::kFunc, static_cast<sim::PartyId>(p),
                                 abort ? sim::encode_func_abort()
                                       : sim::encode_func_output(y)});
    }
    return out;
  }

  // Unfair: show corrupted outputs, then let the adversary decide.
  std::vector<sim::Message> corrupted_outputs;
  for (const sim::PartyId pid : ctx.corrupted()) {
    if (pid < 0 || pid >= static_cast<sim::PartyId>(spec_.n)) continue;
    corrupted_outputs.push_back(sim::Message{sim::kFunc, pid, sim::encode_func_output(y)});
  }
  const bool abort = ctx.adversary_abort_gate(corrupted_outputs);
  if (notes_) notes_->vals["sfe_aborted"] = abort ? 1 : 0;
  for (std::size_t p = 0; p < spec_.n; ++p) {
    const auto pid = static_cast<sim::PartyId>(p);
    const bool is_corrupted = ctx.corrupted().count(pid) > 0;
    const bool deliver = !abort || is_corrupted;
    out.push_back(sim::Message{sim::kFunc, pid,
                               deliver ? sim::encode_func_output(y)
                                       : sim::encode_func_abort()});
  }
  return out;
}

std::vector<sim::Message> deal_through_gate(sim::FuncContext& ctx, sim::MsgView in,
                                            std::size_t n, const NotesPtr& notes,
                                            const Dealer& deal) {
  std::vector<std::optional<Bytes>> inputs(n);
  for (const sim::Message& m : in) {
    if (m.from < 0 || m.from >= static_cast<sim::PartyId>(n)) continue;
    const auto x = sim::decode_func_input(m.payload);
    if (x && !inputs[static_cast<std::size_t>(m.from)]) {
      inputs[static_cast<std::size_t>(m.from)] = *x;
    }
  }

  std::vector<sim::Message> out;
  std::vector<Bytes> xs;
  xs.reserve(n);
  for (const auto& x : inputs) {
    if (!x) {
      if (notes) notes->vals["phase1_aborted"] = 1;
      for (std::size_t p = 0; p < n; ++p) {
        out.push_back(sim::Message{sim::kFunc, static_cast<sim::PartyId>(p),
                                   sim::encode_func_abort()});
      }
      return out;
    }
    xs.push_back(*x);
  }

  std::vector<Bytes> payloads = deal(xs);
  FAIRSFE_CHECK(payloads.size() == n, "deal_through_gate: one payload per party");
  // Each framed payload moves into its message, a corrupted party's into the
  // gate's list and back again: the dealt bytes are never copied, and the n
  // payloads live in the round buffer until the engine frees them together.
  std::vector<sim::Message> corrupted_outputs;
  out.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto pid = static_cast<sim::PartyId>(p);
    out.push_back(sim::Message{sim::kFunc, pid, std::move(payloads[p])});
    if (ctx.corrupted().count(pid)) {
      corrupted_outputs.push_back(sim::Message{sim::kFunc, pid, std::move(out.back().payload)});
    }
  }
  const bool abort = ctx.adversary_abort_gate(corrupted_outputs);
  if (notes) notes->vals["phase1_aborted"] = abort ? 1 : 0;
  for (sim::Message& m : corrupted_outputs) {
    out[static_cast<std::size_t>(m.to)].payload = std::move(m.payload);
  }
  if (abort) {
    for (sim::Message& m : out) {
      if (!ctx.corrupted().count(m.to)) m.payload = sim::encode_func_abort();
    }
  }
  return out;
}

}  // namespace fairsfe::mpc
