#include "crypto/field.h"

#include "crypto/rng.h"

namespace fairsfe {

Fp Fp::pow(std::uint64_t e) const {
  Fp base = *this;
  Fp acc(1);
  while (e != 0) {
    if (e & 1) acc *= base;
    base *= base;
    e >>= 1;
  }
  return acc;
}

Fp Fp::inverse() const {
  // Fermat: a^(p-2) mod p.
  return pow(kP - 2);
}

Fp Fp::random(Rng& rng) {
  return from_reduced(rng.below(kP));
}

std::vector<Fp> bytes_to_field(ByteView data) {
  std::vector<Fp> out;
  out.push_back(Fp(static_cast<std::uint64_t>(data.size())));
  for (std::size_t off = 0; off < data.size(); off += 7) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 7 && off + i < data.size(); ++i) {
      v |= static_cast<std::uint64_t>(data[off + i]) << (8 * i);
    }
    out.push_back(Fp(v));
  }
  return out;
}

Bytes fp_to_bytes(Fp x) {
  Writer w;
  w.u64(x.value());
  return w.take();
}

std::optional<Fp> fp_from_bytes(ByteView data) {
  Reader r(data);
  const auto v = r.u64();
  if (!v || *v >= Fp::kP) return std::nullopt;
  return Fp(*v);
}

}  // namespace fairsfe
