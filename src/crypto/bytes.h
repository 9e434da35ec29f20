// Byte-string utilities and a small length-prefixed serialization format.
//
// Every message exchanged in the simulation framework is a `Bytes` value;
// `Writer`/`Reader` provide a canonical, self-delimiting encoding used by all
// protocol implementations. The encoding is deliberately simple (little-endian
// fixed-width integers, u32 length prefixes) so transcripts are reproducible
// across platforms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

// Sanitizer builds pass every Bytes block straight to operator new/delete,
// so ASan sees a use-after-free on a large buffer instead of a recycled one.
// The value follows from the sanitizer alone; it is not a build option.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FAIRSFE_BYTES_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FAIRSFE_BYTES_POOL 0
#else
#define FAIRSFE_BYTES_POOL 1
#endif
#else
#define FAIRSFE_BYTES_POOL 1
#endif

namespace fairsfe {

/// The per-thread cache behind Bytes' large blocks (DESIGN.md §4, memory
/// reuse). A request of kMinBytes..kMaxBytes gets a block of the next
/// multiple of kClassBytes, from the calling thread's free list of that class;
/// freeing it on the thread that allocated it parks it there again while
/// the thread holds under kThreadBudget cached bytes. Everything else (a
/// block freed on another thread or after the thread's cache is gone, a
/// full cache, any request outside the range) goes to operator new/delete.
namespace bytes_pool {
inline constexpr bool kEnabled = FAIRSFE_BYTES_POOL != 0;
inline constexpr std::size_t kMinBytes = 4096;
inline constexpr std::size_t kClassBytes = 4096;
inline constexpr std::size_t kMaxBytes = 256 * 1024;
inline constexpr std::size_t kThreadBudget = 512 * 1024;

[[nodiscard]] inline constexpr bool pooled(std::size_t n) {
  return kEnabled && n >= kMinBytes && n <= kMaxBytes;
}
/// The usable size of the block a request of n bytes gets.
[[nodiscard]] inline constexpr std::size_t block_size(std::size_t n) {
  return pooled(n) ? (n + kClassBytes - 1) / kClassBytes * kClassBytes : n;
}
/// Precondition for both: pooled(n).
[[nodiscard]] void* allocate(std::size_t n);
void deallocate(void* p, std::size_t n) noexcept;
/// Bytes parked in the calling thread's free lists.
[[nodiscard]] std::size_t cached_bytes() noexcept;
}  // namespace bytes_pool

/// An iterator over contiguous one-byte integers: Bytes copies its ranges
/// with memcpy.
template <class It>
concept ByteIterator = std::contiguous_iterator<It> && std::is_integral_v<std::iter_value_t<It>> &&
                       sizeof(std::iter_value_t<It>) == 1;

/// A growable byte string: the std::vector<std::uint8_t> interface the
/// project uses, over storage that bytes_pool recycles. Bulk operations
/// (copy, append, growth, resize) are memcpy/memmove/memset calls.
/// (For any allocator but std::allocator, libstdc++'s std::vector builds
/// from a range, inserts and assigns element by element: about 28 times
/// slower for a 16 KiB span at -O2.) Iterators
/// are plain pointers; a new element is zero unless a value is given, as in
/// std::vector.
class Bytes {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = std::uint8_t&;
  using const_reference = const std::uint8_t&;
  using pointer = std::uint8_t*;
  using const_pointer = const std::uint8_t*;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  Bytes() noexcept = default;
  explicit Bytes(size_type n) { resize(n); }
  Bytes(size_type n, std::uint8_t v) { resize(n, v); }
  template <std::input_iterator It>
  Bytes(It first, It last) {
    insert(end(), first, last);
  }
  Bytes(std::initializer_list<std::uint8_t> init) { copy_into_empty(init.begin(), init.size()); }
  Bytes(const Bytes& other) { copy_into_empty(other.data_, other.size_); }
  Bytes(Bytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  Bytes& operator=(const Bytes& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  Bytes& operator=(Bytes&& other) noexcept {
    Bytes(std::move(other)).swap(*this);
    return *this;
  }
  ~Bytes() { release(data_, capacity_); }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] size_type capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint8_t* data() noexcept { return data_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  std::uint8_t& operator[](size_type i) noexcept { return data_[i]; }
  const std::uint8_t& operator[](size_type i) const noexcept { return data_[i]; }
  std::uint8_t& back() noexcept { return data_[size_ - 1]; }
  const std::uint8_t& back() const noexcept { return data_[size_ - 1]; }

  void reserve(size_type n) {
    if (n > capacity_) reallocate(n);
  }
  void resize(size_type n) { resize(n, 0); }
  void resize(size_type n, std::uint8_t v) {
    if (n > capacity_) reallocate(grown(n));
    if (n > size_) std::memset(data_ + size_, v, n - size_);
    size_ = n;
  }
  void clear() noexcept { size_ = 0; }
  void push_back(std::uint8_t v) {
    if (size_ == capacity_) reallocate(grown(size_ + 1));
    data_[size_++] = v;
  }
  void pop_back() noexcept { --size_; }

  /// Appends only: pos must be end(). The source may lie in this buffer.
  template <std::input_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    FAIRSFE_CHECK(pos == end(), "Bytes::insert appends only");
    const size_type at = size_;
    if constexpr (ByteIterator<It>) {
      append(reinterpret_cast<const std::uint8_t*>(std::to_address(first)),
             static_cast<size_type>(last - first));
    } else {
      for (; first != last; ++first) push_back(static_cast<std::uint8_t>(*first));
    }
    return data_ + at;
  }

  template <std::input_iterator It>
  void assign(It first, It last) {
    if constexpr (ByteIterator<It>) {
      assign_bytes(reinterpret_cast<const std::uint8_t*>(std::to_address(first)),
                   static_cast<size_type>(last - first));
    } else {
      Bytes staged(first, last);
      swap(staged);
    }
  }

  void swap(Bytes& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }
  friend void swap(Bytes& a, Bytes& b) noexcept { a.swap(b); }

  friend bool operator==(const Bytes& a, const Bytes& b) noexcept {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  /// Storage of at least n bytes; `capacity` gets what the block holds.
  static std::uint8_t* allocate(size_type n, size_type& capacity) {
    capacity = bytes_pool::block_size(n);
    return static_cast<std::uint8_t*>(bytes_pool::pooled(n) ? bytes_pool::allocate(n)
                                                            : ::operator new(n));
  }
  static void release(std::uint8_t* p, size_type capacity) noexcept {
    if (p == nullptr) return;
    if (bytes_pool::pooled(capacity)) {
      bytes_pool::deallocate(p, capacity);
    } else {
      ::operator delete(p, capacity);
    }
  }
  [[nodiscard]] size_type grown(size_type need) const noexcept {
    return need > 2 * size_ ? need : 2 * size_;
  }
  /// Move the contents to a block of at least n >= size() bytes.
  void reallocate(size_type n) {
    size_type capacity = 0;
    std::uint8_t* fresh = allocate(n, capacity);
    if (size_ != 0) std::memcpy(fresh, data_, size_);
    release(data_, capacity_);
    data_ = fresh;
    capacity_ = capacity;
  }
  void copy_into_empty(const std::uint8_t* src, size_type n) {
    if (n == 0) return;
    data_ = allocate(n, capacity_);
    std::memcpy(data_, src, n);
    size_ = n;
  }
  void append(const std::uint8_t* src, size_type n) {
    if (n == 0) return;
    // The data_ test is implied by the capacity test; it lets GCC drop the
    // memcpy for an empty Bytes instead of warning about it (-Wnonnull).
    if (data_ != nullptr && n <= capacity_ - size_) {
      std::memcpy(data_ + size_, src, n);
      size_ += n;
    } else {
      append_grown(src, n);
    }
  }
  /// append() into a new, larger block.
  void append_grown(const std::uint8_t* src, size_type n);
  void assign_bytes(const std::uint8_t* src, size_type n);

  std::uint8_t* data_ = nullptr;
  size_type size_ = 0;
  size_type capacity_ = 0;
};

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

  std::optional<std::uint8_t> u8() {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint32_t> u32() {
    if (remaining() < 4) return std::nullopt;
    const std::uint32_t v = read_le32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  std::optional<std::uint64_t> u64() {
    if (remaining() < 8) return std::nullopt;
    const std::uint64_t v = read_le64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  std::optional<Bytes> blob();
  /// Like blob(), but a view into the underlying data (no copy).
  std::optional<ByteView> blob_view() {
    const auto len = u32();
    if (!len || remaining() < *len) return std::nullopt;
    const ByteView out = data_.subspan(pos_, *len);
    pos_ += *len;
    return out;
  }
  std::optional<Bytes> raw(std::size_t n);
  std::optional<std::string> str();

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace fairsfe
