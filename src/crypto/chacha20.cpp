#include "crypto/chacha20.h"

#include <cstring>

#include "crypto/kernels.h"
#include "util/check.h"

#ifdef FAIRSFE_X86_KERNELS
#include <immintrin.h>
#endif

namespace fairsfe {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The smallest draw the batch kernels serve: four whole blocks.
constexpr std::size_t kMinBatch = 4 * ChaCha20::kBlockSize;

#ifdef FAIRSFE_X86_KERNELS

// The batch kernels keep word i of every block in vector x[i], one block per
// 32-bit lane, so a quarter round is the scalar one applied lane-wise. After
// the rounds each group of four words is transposed back to block order.

template <int N>
inline __m128i rotl_sse2(__m128i x) {
  return _mm_or_si128(_mm_slli_epi32(x, N), _mm_srli_epi32(x, 32 - N));
}

template <>
inline __m128i rotl_sse2<16>(__m128i x) {
  return _mm_shufflehi_epi16(_mm_shufflelo_epi16(x, 0xB1), 0xB1);
}

inline void quarter_round_sse2(__m128i& a, __m128i& b, __m128i& c, __m128i& d) {
  a = _mm_add_epi32(a, b); d = rotl_sse2<16>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d); b = rotl_sse2<12>(_mm_xor_si128(b, c));
  a = _mm_add_epi32(a, b); d = rotl_sse2<8>(_mm_xor_si128(d, a));
  c = _mm_add_epi32(c, d); b = rotl_sse2<7>(_mm_xor_si128(b, c));
}

inline void put_sse2(std::uint8_t* p, __m128i v, bool xor_out) {
  auto* q = reinterpret_cast<__m128i*>(p);
  if (xor_out) v = _mm_xor_si128(v, _mm_loadu_si128(q));
  _mm_storeu_si128(q, v);
}

template <int N>
__attribute__((target("avx2"))) inline __m256i rotl_avx2(__m256i x) {
  if constexpr (N == 16 || N == 8) {
    // Whole-byte rotations are one byte shuffle.
    const __m256i rot = N == 16 ? _mm256_set_epi8(13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6,
                                                  1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10,
                                                  5, 4, 7, 6, 1, 0, 3, 2)
                                : _mm256_set_epi8(14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7,
                                                  2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11,
                                                  6, 5, 4, 7, 2, 1, 0, 3);
    return _mm256_shuffle_epi8(x, rot);
  } else {
    return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
  }
}

__attribute__((target("avx2"))) inline void quarter_round_avx2(__m256i& a, __m256i& b,
                                                               __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b); d = rotl_avx2<16>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl_avx2<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = rotl_avx2<8>(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl_avx2<7>(_mm256_xor_si256(b, c));
}

/// Whole blocks straight from `state` into out[0..n) while at least four
/// remain: sixteen at a time on AVX-512, then eight on AVX2, then four with
/// SSE2. Advances the block counter by the blocks written and returns their
/// byte count. Callers skip the call below kMinBatch bytes, so short draws
/// never reach it.
std::size_t batch_blocks(std::uint32_t* state, std::uint8_t* out, std::size_t n,
                         bool xor_out) {
  constexpr std::size_t kBlock = ChaCha20::kBlockSize;
  std::size_t done = 0;
  if (crypto_kernels::cpu_has_avx512()) {
    for (; n - done >= 16 * kBlock; done += 16 * kBlock, state[12] += 16) {
      crypto_kernels::chacha20_blocks16_avx512(state, out + done, xor_out);
    }
  }
  if (crypto_kernels::cpu_has_avx2()) {
    for (; n - done >= 8 * kBlock; done += 8 * kBlock, state[12] += 8) {
      crypto_kernels::chacha20_blocks8_avx2(state, out + done, xor_out);
    }
  }
  for (; n - done >= kMinBatch; done += kMinBatch, state[12] += 4) {
    crypto_kernels::chacha20_blocks4_sse2(state, out + done, xor_out);
  }
  return done;
}

#else

std::size_t batch_blocks(std::uint32_t*, std::uint8_t*, std::size_t, bool) { return 0; }

#endif  // FAIRSFE_X86_KERNELS

}  // namespace

namespace crypto_kernels {

void chacha20_block_scalar(const std::uint32_t* state, std::uint8_t* out) {
  std::array<std::uint32_t, 16> x;
  std::memcpy(x.data(), state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

#ifdef FAIRSFE_X86_KERNELS

void chacha20_blocks4_sse2(const std::uint32_t* state, std::uint8_t* out, bool xor_out) {
  __m128i s[16], x[16];
  for (int i = 0; i < 16; ++i) s[i] = _mm_set1_epi32(static_cast<int>(state[i]));
  s[12] = _mm_add_epi32(s[12], _mm_setr_epi32(0, 1, 2, 3));
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round_sse2(x[0], x[4], x[8], x[12]);
    quarter_round_sse2(x[1], x[5], x[9], x[13]);
    quarter_round_sse2(x[2], x[6], x[10], x[14]);
    quarter_round_sse2(x[3], x[7], x[11], x[15]);
    quarter_round_sse2(x[0], x[5], x[10], x[15]);
    quarter_round_sse2(x[1], x[6], x[11], x[12]);
    quarter_round_sse2(x[2], x[7], x[8], x[13]);
    quarter_round_sse2(x[3], x[4], x[9], x[14]);
  }
  for (int g = 0; g < 16; g += 4) {
    const __m128i a = _mm_add_epi32(x[g], s[g]), b = _mm_add_epi32(x[g + 1], s[g + 1]);
    const __m128i c = _mm_add_epi32(x[g + 2], s[g + 2]), d = _mm_add_epi32(x[g + 3], s[g + 3]);
    const __m128i ab_lo = _mm_unpacklo_epi32(a, b), cd_lo = _mm_unpacklo_epi32(c, d);
    const __m128i ab_hi = _mm_unpackhi_epi32(a, b), cd_hi = _mm_unpackhi_epi32(c, d);
    put_sse2(out + 4 * g, _mm_unpacklo_epi64(ab_lo, cd_lo), xor_out);
    put_sse2(out + 64 + 4 * g, _mm_unpackhi_epi64(ab_lo, cd_lo), xor_out);
    put_sse2(out + 128 + 4 * g, _mm_unpacklo_epi64(ab_hi, cd_hi), xor_out);
    put_sse2(out + 192 + 4 * g, _mm_unpackhi_epi64(ab_hi, cd_hi), xor_out);
  }
}

__attribute__((target("avx2"))) void chacha20_blocks8_avx2(const std::uint32_t* state,
                                                           std::uint8_t* out, bool xor_out) {
  __m256i s[16], x[16];
  for (int i = 0; i < 16; ++i) s[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  s[12] = _mm256_add_epi32(s[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round_avx2(x[0], x[4], x[8], x[12]);
    quarter_round_avx2(x[1], x[5], x[9], x[13]);
    quarter_round_avx2(x[2], x[6], x[10], x[14]);
    quarter_round_avx2(x[3], x[7], x[11], x[15]);
    quarter_round_avx2(x[0], x[5], x[10], x[15]);
    quarter_round_avx2(x[1], x[6], x[11], x[12]);
    quarter_round_avx2(x[2], x[7], x[8], x[13]);
    quarter_round_avx2(x[3], x[4], x[9], x[14]);
  }
  // The unpacks work within 128-bit halves: row j holds block j in its low
  // half and block j + 4 in its high half.
  for (int g = 0; g < 16; g += 4) {
    const __m256i a = _mm256_add_epi32(x[g], s[g]), b = _mm256_add_epi32(x[g + 1], s[g + 1]);
    const __m256i c = _mm256_add_epi32(x[g + 2], s[g + 2]);
    const __m256i d = _mm256_add_epi32(x[g + 3], s[g + 3]);
    const __m256i ab_lo = _mm256_unpacklo_epi32(a, b), cd_lo = _mm256_unpacklo_epi32(c, d);
    const __m256i ab_hi = _mm256_unpackhi_epi32(a, b), cd_hi = _mm256_unpackhi_epi32(c, d);
    const __m256i rows[4] = {
        _mm256_unpacklo_epi64(ab_lo, cd_lo), _mm256_unpackhi_epi64(ab_lo, cd_lo),
        _mm256_unpacklo_epi64(ab_hi, cd_hi), _mm256_unpackhi_epi64(ab_hi, cd_hi)};
    for (int j = 0; j < 4; ++j) {
      put_sse2(out + 64 * j + 4 * g, _mm256_castsi256_si128(rows[j]), xor_out);
      put_sse2(out + 64 * (j + 4) + 4 * g, _mm256_extracti128_si256(rows[j], 1), xor_out);
    }
  }
}

// GCC 12's avx512fintrin.h passes _mm512_undefined_epi32() as the unused
// merge source of rotations, unpacks and lane shuffles, which raises
// -Wuninitialized / -Wmaybe-uninitialized wherever they are inlined (GCC bug
// 105593). Silenced for the AVX-512 kernel only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

__attribute__((target("avx512f"))) inline void quarter_round_avx512(__m512i& a, __m512i& b,
                                                                    __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

}  // namespace

__attribute__((target("avx512f"))) void chacha20_blocks16_avx512(const std::uint32_t* state,
                                                                 std::uint8_t* out,
                                                                 bool xor_out) {
  __m512i s[16], x[16];
  for (int i = 0; i < 16; ++i) s[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
  s[12] = _mm512_add_epi32(
      s[12], _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round_avx512(x[0], x[4], x[8], x[12]);
    quarter_round_avx512(x[1], x[5], x[9], x[13]);
    quarter_round_avx512(x[2], x[6], x[10], x[14]);
    quarter_round_avx512(x[3], x[7], x[11], x[15]);
    quarter_round_avx512(x[0], x[5], x[10], x[15]);
    quarter_round_avx512(x[1], x[6], x[11], x[12]);
    quarter_round_avx512(x[2], x[7], x[8], x[13]);
    quarter_round_avx512(x[3], x[4], x[9], x[14]);
  }
  // A 16x16 dword transpose. The unpacks work within 128-bit lanes: after
  // them, 128-bit lane q of rows[g / 4][j] holds words g..g+3 of block
  // 4q + j. Two rounds of lane shuffles then put the four word groups of
  // each block side by side.
  __m512i rows[4][4];
  for (int g = 0; g < 16; g += 4) {
    const __m512i a = _mm512_add_epi32(x[g], s[g]), b = _mm512_add_epi32(x[g + 1], s[g + 1]);
    const __m512i c = _mm512_add_epi32(x[g + 2], s[g + 2]);
    const __m512i d = _mm512_add_epi32(x[g + 3], s[g + 3]);
    const __m512i ab_lo = _mm512_unpacklo_epi32(a, b), cd_lo = _mm512_unpacklo_epi32(c, d);
    const __m512i ab_hi = _mm512_unpackhi_epi32(a, b), cd_hi = _mm512_unpackhi_epi32(c, d);
    rows[g / 4][0] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
    rows[g / 4][1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
    rows[g / 4][2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
    rows[g / 4][3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
  }
  for (int j = 0; j < 4; ++j) {
    // t0 = [w0-3 q0, q1 | w4-7 q0, q1], t1 = the same for q2, q3; t2, t3
    // likewise for words 8-15.
    const __m512i t0 = _mm512_shuffle_i32x4(rows[0][j], rows[1][j], 0x44);
    const __m512i t1 = _mm512_shuffle_i32x4(rows[0][j], rows[1][j], 0xEE);
    const __m512i t2 = _mm512_shuffle_i32x4(rows[2][j], rows[3][j], 0x44);
    const __m512i t3 = _mm512_shuffle_i32x4(rows[2][j], rows[3][j], 0xEE);
    const __m512i blocks[4] = {
        _mm512_shuffle_i32x4(t0, t2, 0x88), _mm512_shuffle_i32x4(t0, t2, 0xDD),
        _mm512_shuffle_i32x4(t1, t3, 0x88), _mm512_shuffle_i32x4(t1, t3, 0xDD)};
    for (int q = 0; q < 4; ++q) {
      std::uint8_t* p = out + 64 * (4 * q + j);
      __m512i v = blocks[q];
      if (xor_out) v = _mm512_xor_si512(v, _mm512_loadu_si512(p));
      _mm512_storeu_si512(p, v);
    }
  }
}

#pragma GCC diagnostic pop

bool cpu_has_avx2() {
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
}

bool cpu_has_avx512() {
  static const bool have =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return have;
}

#else

bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }

#endif  // FAIRSFE_X86_KERNELS

}  // namespace crypto_kernels

ChaCha20::ChaCha20(ByteView key, ByteView nonce, std::uint32_t counter) {
  FAIRSFE_CHECK(key.size() == kKeySize, "ChaCha20 key must be 32 bytes");
  FAIRSFE_CHECK(nonce.size() == kNonceSize, "ChaCha20 nonce must be 12 bytes");
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  block_pos_ = 0;
#ifdef FAIRSFE_X86_KERNELS
  if (scalar_refills_ == kScalarRefills) {
    if (wide_.empty()) wide_.resize(kWideSize);
    batch_blocks(state_.data(), wide_.data(), kWideSize, false);
    return;
  }
#endif
  ++scalar_refills_;
  crypto_kernels::chacha20_block_scalar(state_.data(), block_.data());
  state_[12] += 1;  // block counter
}

// Both loops below hand whole blocks to the batch kernels once the buffer is
// used up, and leave short draws and tails to refill(). The buffer holds the
// blocks that follow the last ones drawn, whether it is one scalar block or
// a wide refill, so the keystream is the same, block for block, as the
// scalar path alone.

void ChaCha20::fill(std::uint8_t* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    if (block_pos_ >= buffered_size()) {
      if (n - done >= kMinBatch) {
        done += batch_blocks(state_.data(), out + done, n - done, false);
        if (done == n) break;
      }
      refill();
    }
    const std::size_t take = std::min(buffered_size() - block_pos_, n - done);
    std::memcpy(out + done, buffered() + block_pos_, take);
    block_pos_ += static_cast<std::uint32_t>(take);
    done += take;
  }
}

void ChaCha20::xor_into(std::span<std::uint8_t> data) {
  std::size_t done = 0;
  const std::size_t n = data.size();
  while (done < n) {
    if (block_pos_ >= buffered_size()) {
      if (n - done >= kMinBatch) {
        done += batch_blocks(state_.data(), data.data() + done, n - done, true);
        if (done == n) break;
      }
      refill();
    }
    const std::size_t take = std::min(buffered_size() - block_pos_, n - done);
    const std::uint8_t* ks = buffered() + block_pos_;
    for (std::size_t i = 0; i < take; ++i) data[done + i] ^= ks[i];
    block_pos_ += static_cast<std::uint32_t>(take);
    done += take;
  }
}

void ChaCha20::key(std::uint8_t* out) const {
  for (int i = 0; i < 8; ++i) write_le32(out + 4 * i, state_[4 + i]);
}

Bytes ChaCha20::keystream(std::size_t n) {
  Bytes out(n);
  fill(out.data(), n);
  return out;
}

Bytes ChaCha20::process(ByteView data) {
  Bytes out(data.begin(), data.end());
  xor_into(out);
  return out;
}

}  // namespace fairsfe
