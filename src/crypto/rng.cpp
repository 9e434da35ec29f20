#include "crypto/rng.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace fairsfe {

namespace {
Bytes expand_seed(std::uint64_t seed) {
  Writer w;
  w.str("fairsfe-rng-seed").u64(seed);
  return sha256(w.bytes());
}
}  // namespace

Rng::Rng(std::uint64_t seed) : Rng(expand_seed(seed)) {}

Rng::Rng(const Bytes& key) : Rng(ByteView(key)) {}

Rng Rng::fork(std::string_view label) {
  return fork_at(label, fork_counter_++);
}

Rng Rng::fork_at(std::string_view label, std::uint64_t index) const {
  if (!hmac_) {
    std::uint8_t key[ChaCha20::kKeySize];
    stream_.key(key);
    hmac_ = std::make_shared<const HmacSha256>(ByteView(key));
  }
  // The Writer encoding str(label) ‖ u64(index), framed on the stack.
  ScratchBytes<64> msg(4 + label.size() + 8);
  std::uint8_t* p = msg.data();
  write_le32(p, static_cast<std::uint32_t>(label.size()));
  if (!label.empty()) std::memcpy(p + 4, label.data(), label.size());
  write_le64(p + 4 + label.size(), index);
  std::uint8_t child[ChaCha20::kKeySize];
  hmac_->mac(msg.span(), child);
  return Rng(ByteView(child));
}

std::uint64_t Rng::u64() {
  std::uint8_t b[8];
  stream_.fill(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * ((~std::uint64_t{0}) / n);
  std::uint64_t v;
  do {
    v = u64();
  } while (v >= limit);
  return v % n;
}

bool Rng::bit() {
  std::uint8_t b;
  stream_.fill(&b, 1);
  return (b & 1) != 0;
}

Bytes Rng::bytes(std::size_t n) {
  return stream_.keystream(n);
}

void Rng::fill(std::span<std::uint8_t> out) {
  stream_.fill(out);
}

double Rng::uniform() {
  // 53 random bits into the mantissa.
  return static_cast<double>(u64() >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace fairsfe
