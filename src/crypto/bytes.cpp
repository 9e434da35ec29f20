#include "crypto/bytes.h"

namespace fairsfe {

void Bytes::append_grown(const std::uint8_t* src, size_type n) {
  // src may lie in the old block: copy it before releasing that.
  size_type capacity = 0;
  std::uint8_t* fresh = allocate(grown(size_ + n), capacity);
  if (size_ != 0) std::memcpy(fresh, data_, size_);
  std::memcpy(fresh + size_, src, n);
  release(data_, capacity_);
  data_ = fresh;
  size_ += n;
  capacity_ = capacity;
}

void Bytes::assign_bytes(const std::uint8_t* src, size_type n) {
  if (n > capacity_) {
    size_type capacity = 0;
    std::uint8_t* fresh = allocate(n, capacity);
    std::memcpy(fresh, src, n);
    release(data_, capacity_);
    data_ = fresh;
    capacity_ = capacity;
  } else if (n != 0) {
    std::memmove(data_, src, n);  // the source may lie in this buffer
  }
  size_ = n;
}

std::string to_hex(ByteView data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_val(hex[i]);
    const int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes operator+(const Bytes& a, const Bytes& b) {
  Bytes out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

Bytes xor_bytes(ByteView a, ByteView b) {
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

Writer& Writer::u8(std::uint8_t v) {
  buf_.push_back(v);
  return *this;
}

Writer& Writer::u32(std::uint32_t v) {
  std::uint8_t b[4];
  write_le32(b, v);
  buf_.insert(buf_.end(), b, b + 4);
  return *this;
}

Writer& Writer::u64(std::uint64_t v) {
  std::uint8_t b[8];
  write_le64(b, v);
  buf_.insert(buf_.end(), b, b + 8);
  return *this;
}

Writer& Writer::blob(ByteView data) {
  u32(static_cast<std::uint32_t>(data.size()));
  return raw(data);
}

Writer& Writer::raw(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  return *this;
}

std::span<std::uint8_t> Writer::extend(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return std::span<std::uint8_t>(buf_).subspan(at);
}

Writer& Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
  return *this;
}

std::optional<Bytes> Reader::blob() {
  const auto len = u32();
  if (!len) return std::nullopt;
  return raw(*len);
}

std::optional<Bytes> Reader::raw(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::optional<std::string> Reader::str() {
  const auto b = blob();
  if (!b) return std::nullopt;
  return std::string(b->begin(), b->end());
}

}  // namespace fairsfe
