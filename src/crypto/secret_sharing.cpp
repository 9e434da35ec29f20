#include "crypto/secret_sharing.h"

#include <algorithm>

#include "crypto/rng.h"
#include "util/check.h"

namespace fairsfe {

void xor_share(ByteView secret, std::span<const std::span<std::uint8_t>> shares, Rng& rng) {
  FAIRSFE_CHECK(!shares.empty(), "xor_share needs at least one share");
  const std::span<std::uint8_t> last = shares.back();
  FAIRSFE_CHECK(last.size() == secret.size(), "xor_share: share length mismatch");
  std::ranges::copy(secret, last.begin());
  for (const std::span<std::uint8_t> s : shares.first(shares.size() - 1)) {
    FAIRSFE_CHECK(s.size() == secret.size(), "xor_share: share length mismatch");
    rng.fill(s);
    for (std::size_t i = 0; i < s.size(); ++i) last[i] ^= s[i];
  }
}

Bytes xor_reconstruct(std::span<const ByteView> shares) {
  FAIRSFE_CHECK(!shares.empty(), "xor_reconstruct over zero shares");
  Bytes acc(shares.front().begin(), shares.front().end());
  for (const ByteView s : shares.subspan(1)) {
    FAIRSFE_CHECK(s.size() == acc.size(), "xor_reconstruct: share length mismatch");
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= s[i];
  }
  return acc;
}

std::vector<Fp> additive_share(Fp secret, std::size_t n, Rng& rng) {
  FAIRSFE_CHECK(n >= 1, "additive_share needs at least one share");
  std::vector<Fp> shares;
  shares.reserve(n);
  Fp acc = secret;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Fp r = Fp::random(rng);
    acc -= r;
    shares.push_back(r);
  }
  shares.push_back(acc);
  return shares;
}

Fp additive_reconstruct(const std::vector<Fp>& shares) {
  Fp acc;
  for (const Fp s : shares) acc += s;
  return acc;
}

}  // namespace fairsfe
