// Byte-string utilities and a small length-prefixed serialization format.
//
// Every message exchanged in the simulation framework is a `Bytes` value;
// `Writer`/`Reader` provide a canonical, self-delimiting encoding used by all
// protocol implementations. The encoding is deliberately simple (little-endian
// fixed-width integers, u32 length prefixes) so transcripts are reproducible
// across platforms.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fairsfe {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Hex-encode a byte string (lowercase).
std::string to_hex(ByteView data);

/// Decode a hex string; returns std::nullopt on malformed input.
std::optional<Bytes> from_hex(std::string_view hex);

/// Concatenate two byte strings.
Bytes operator+(const Bytes& a, const Bytes& b);

/// Byte string from a string literal / std::string contents.
Bytes bytes_of(std::string_view s);

/// XOR two equal-length byte strings. Precondition: a.size() == b.size().
Bytes xor_bytes(ByteView a, ByteView b);

/// Constant-time equality (length leak only).
bool ct_equal(ByteView a, ByteView b);

/// Little-endian fixed-width words at a raw position: the integer layout of
/// Writer and Reader, for code that frames a record in place.
inline void write_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void write_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t read_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint64_t read_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// A temporary byte buffer of run-time size: on the stack up to N bytes, on
/// the heap above. It starts zeroed; keep N small, since every construction
/// clears the inline bytes.
template <std::size_t N>
class ScratchBytes {
 public:
  explicit ScratchBytes(std::size_t size) : size_(size) {
    if (size > N) heap_.resize(size);
  }
  [[nodiscard]] std::uint8_t* data() { return size_ > N ? heap_.data() : inline_.data(); }
  [[nodiscard]] std::span<std::uint8_t> span() { return {data(), size_}; }

 private:
  std::size_t size_ = 0;
  std::array<std::uint8_t, N> inline_{};
  Bytes heap_;
};

/// Append-only encoder for the canonical wire format.
class Writer {
 public:
  /// Most control messages are tag + label + a few operands; one up-front
  /// allocation replaces the doubling crawl from an empty buffer.
  Writer() { buf_.reserve(24); }

  /// Pre-size the buffer for a frame whose length the caller can bound.
  Writer& reserve(std::size_t n) {
    buf_.reserve(n);
    return *this;
  }

  Writer& u8(std::uint8_t v);
  Writer& u32(std::uint32_t v);
  Writer& u64(std::uint64_t v);
  /// Length-prefixed byte string (u32 length).
  Writer& blob(ByteView data);
  /// Raw bytes, no length prefix (caller knows the framing).
  Writer& raw(ByteView data);
  /// Append n zero bytes and return them, for a record the caller frames in
  /// place. The span is valid until the next write to this Writer.
  std::span<std::uint8_t> extend(std::size_t n);
  Writer& str(std::string_view s);

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Cursor-based decoder; all accessors return std::nullopt past the end or on
/// malformed framing instead of throwing, so protocol code can treat any
/// decode failure as a (detectable) adversarial deviation.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<Bytes> blob();
  /// Like blob(), but a view into the underlying data (no copy).
  std::optional<ByteView> blob_view();
  std::optional<Bytes> raw(std::size_t n);
  std::optional<std::string> str();

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace fairsfe
