// ChaCha20 stream cipher (RFC 8439 block function), used as the PRG behind
// all protocol randomness. Deterministic given (key, nonce), which is what
// makes every simulated execution reproducible from a 32-byte seed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bytes.h"

namespace fairsfe {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kBlockSize = 64;

  /// key must be 32 bytes; nonce 12 bytes. Counter starts at `counter`.
  ChaCha20(ByteView key, ByteView nonce, std::uint32_t counter = 0);

  /// Write the next `n` keystream bytes into `out` (no allocation). Consumes
  /// exactly the same keystream as keystream(n).
  void fill(std::uint8_t* out, std::size_t n);
  void fill(std::span<std::uint8_t> out) { fill(out.data(), out.size()); }

  /// XOR the next data.size() keystream bytes into `data` in place
  /// (encrypt == decrypt, no allocation).
  void xor_into(std::span<std::uint8_t> data);

  /// Produce the next `n` keystream bytes (allocating convenience wrapper).
  Bytes keystream(std::size_t n);

  /// XOR `data` with keystream (allocating; encrypt == decrypt).
  Bytes process(ByteView data);

  /// The 32-byte key the stream was built from, into out[0..32).
  void key(std::uint8_t* out) const;

 private:
  /// Scalar one-block refills a stream makes before it widens: the many leaf
  /// streams that draw a few hundred bytes never pay for a wide buffer.
  static constexpr std::uint32_t kScalarRefills = 4;
  /// A widened stream refills 16 blocks at a time.
  static constexpr std::size_t kWideSize = 16 * kBlockSize;

  void refill();
  [[nodiscard]] const std::uint8_t* buffered() const {
    return wide_.empty() ? block_.data() : wide_.data();
  }
  [[nodiscard]] std::size_t buffered_size() const {
    return wide_.empty() ? kBlockSize : kWideSize;
  }

  std::array<std::uint32_t, 16> state_{};
  std::array<std::uint8_t, kBlockSize> block_{};
  /// The 16-block buffer, allocated when the stream widens and copied with
  /// the stream; empty before that.
  std::vector<std::uint8_t> wide_;
  std::uint32_t block_pos_ = kBlockSize;  // forces refill on first use
  std::uint32_t scalar_refills_ = 0;
};

}  // namespace fairsfe
