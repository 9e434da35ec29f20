#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/kernels.h"
#include "util/check.h"

#ifdef FAIRSFE_X86_KERNELS
#include <immintrin.h>
#endif

namespace fairsfe {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// One byte swap and one store per word: byte-wise stores here get
// auto-vectorized into a long shuffle sequence that costs more than the
// SHA-NI compression itself.
inline void put_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void put_digest(const std::uint32_t* state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) put_be32(out + 4 * i, state[i]);
}

/// The one padded block of a message whose last `tail.size()` <= 55 bytes
/// follow `prefix_len` already-compressed bytes. The tail is copied in
/// 16-byte pieces, the width the SHA-NI kernel loads, so those loads forward
/// from the stores instead of waiting for them to retire.
inline void pad_single_block(std::uint8_t* block, std::uint64_t prefix_len, ByteView tail) {
  std::memset(block, 0, Sha256::kBlockSize);
  std::size_t i = 0;
  for (; i + 16 <= tail.size(); i += 16) std::memcpy(block + i, tail.data() + i, 16);
  if (i < tail.size()) std::memcpy(block + i, tail.data() + i, tail.size() - i);
  block[tail.size()] = 0x80;
  const std::uint64_t bit_len = (prefix_len + tail.size()) * 8;
  put_be32(block + 56, static_cast<std::uint32_t>(bit_len >> 32));
  put_be32(block + 60, static_cast<std::uint32_t>(bit_len));
}

/// The padded block of a 32-byte message. Two 32-byte copies, so the
/// kernel's 16-byte loads forward straight from the stores that built it.
inline void pad_32(std::uint8_t* block, const std::uint8_t* in) {
  static constexpr std::uint8_t kTail[32] = {0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                             0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                             0,    0, 0, 0, 0, 0, 0, 0, 0x01, 0x00};
  std::memcpy(block, in, 32);
  std::memcpy(block + 32, kTail, 32);
}

#ifdef FAIRSFE_X86_KERNELS

// One compression of N independent (state, block) pairs with the SHA
// extension (sha256rnds2/sha256msg1/sha256msg2). Every step is a loop over
// the lanes, so N = 2 interleaves two dependency chains through the round
// unit while N = 1 is the plain single-block pass; the schedule itself is
// written once. Bit-identical to the portable loop — only the block pass
// changes — and gated at runtime on cpuid.
//
// The 64 rounds run as 16 groups of four. Group g feeds schedule register
// msg[g % 4] (W[4g..4g+3]) to the round function; groups 3..14 finish the
// next register with sha256msg2, and groups 1..12 start the one after with
// sha256msg1.
//
// Each lane ends either as new state words (`new_states`) or, for a final
// block, straight as its big-endian digest (`digests`, two 16-byte stores
// that a following 16-byte load can forward from); exactly one is non-null.
template <int N>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void compress_shani(
    const std::uint32_t* const* states, const std::uint8_t* const* blocks,
    std::uint32_t* const* new_states, std::uint8_t* const* digests) {
  // Byte-swaps each 32-bit word: big-endian message words in, digest out.
  const __m128i kShuffle = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef[N], cdgh[N], abef_save[N], cdgh_save[N], msg[4][N], wk[N];

  // state[] is {a,b,c,d,e,f,g,h}; the instruction wants (ABEF, CDGH) pairs.
  for (int l = 0; l < N; ++l) {
    const __m128i dcba = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[l])), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[l] + 4)), 0x1B);
    abef[l] = abef_save[l] = _mm_alignr_epi8(dcba, efgh, 8);
    cdgh[l] = cdgh_save[l] = _mm_blend_epi16(efgh, dcba, 0xF0);
    for (int i = 0; i < 4; ++i) {
      msg[i][l] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[l]) + i), kShuffle);
    }
  }

#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    const __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g));
    __m128i* const cur = msg[g % 4];
    __m128i* const next = msg[(g + 1) % 4];
    __m128i* const prev = msg[(g + 3) % 4];
    for (int l = 0; l < N; ++l) wk[l] = _mm_add_epi32(cur[l], k);
    for (int l = 0; l < N; ++l) cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
    if (g >= 3 && g <= 14) {
      for (int l = 0; l < N; ++l) {
        next[l] = _mm_sha256msg2_epu32(
            _mm_add_epi32(next[l], _mm_alignr_epi8(cur[l], prev[l], 4)), cur[l]);
      }
    }
    for (int l = 0; l < N; ++l) wk[l] = _mm_shuffle_epi32(wk[l], 0x0E);
    for (int l = 0; l < N; ++l) abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], wk[l]);
    if (g >= 1 && g <= 12) {
      for (int l = 0; l < N; ++l) prev[l] = _mm_sha256msg1_epu32(prev[l], cur[l]);
    }
  }

  // Back to {a..d}, {e..h} order.
  for (int l = 0; l < N; ++l) {
    const __m128i feba = _mm_shuffle_epi32(_mm_add_epi32(abef[l], abef_save[l]), 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh[l], cdgh_save[l]), 0xB1);
    const __m128i abcd = _mm_blend_epi16(feba, dchg, 0xF0);
    const __m128i efgh = _mm_alignr_epi8(dchg, feba, 8);
    if (digests != nullptr) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(digests[l]), _mm_shuffle_epi8(abcd, kShuffle));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(digests[l] + 16),
                       _mm_shuffle_epi8(efgh, kShuffle));
    } else {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(new_states[l]), abcd);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(new_states[l] + 4), efgh);
    }
  }
}

__attribute__((target("sha,sse4.1,ssse3"))) void digest_shani(const std::uint32_t* midstate,
                                                              const std::uint8_t* block,
                                                              std::uint8_t* out) {
  compress_shani<1>(&midstate, &block, nullptr, &out);
}

__attribute__((target("sha,sse4.1,ssse3"))) void digest_shani_x2(const std::uint8_t* block0,
                                                                 const std::uint8_t* block1,
                                                                 std::uint8_t* out0,
                                                                 std::uint8_t* out1) {
  const std::uint32_t* const states[2] = {crypto_kernels::kSha256Iv, crypto_kernels::kSha256Iv};
  const std::uint8_t* const blocks[2] = {block0, block1};
  std::uint8_t* const digests[2] = {out0, out1};
  compress_shani<2>(states, blocks, nullptr, digests);
}

/// The padding words W[8..15] of a 32-byte message (bit length 256).
constexpr std::uint32_t kPad32[8] = {0x80000000, 0, 0, 0, 0, 0, 0, 256};

constexpr std::uint32_t ssig0(std::uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t ssig1(std::uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

/// Whether schedule word t depends on the message. For a 32-byte message
/// (kFixed32), W[8..15] are the padding constants; in a pre-padded block every
/// word is read from the block.
template <bool kFixed32>
constexpr bool message_word(int t) {
  return !kFixed32 || t < 8 || t >= 16;
}

/// The part of schedule word t >= 16 that only reads padding words.
template <bool kFixed32>
constexpr std::uint32_t schedule_constant(int t) {
  std::uint32_t c = 0;
  if (!message_word<kFixed32>(t - 2)) c += ssig1(kPad32[t - 2 - 8]);
  if (!message_word<kFixed32>(t - 7)) c += kPad32[t - 7 - 8];
  if (!message_word<kFixed32>(t - 15)) c += ssig0(kPad32[t - 15 - 8]);
  if (!message_word<kFixed32>(t - 16)) c += kPad32[t - 16 - 8];
  return c;
}

#endif  // FAIRSFE_X86_KERNELS

/// One compression: SHA-NI when the CPU has it, the portable loop otherwise.
inline void compress(std::uint32_t* state, const std::uint8_t* block) {
#ifdef FAIRSFE_X86_KERNELS
  if (crypto_kernels::cpu_has_sha_ni()) {
    crypto_kernels::sha256_compress_shani(state, block);
    return;
  }
#endif
  crypto_kernels::sha256_compress_portable(state, block);
}

/// The digest of the final `block` compressed into `midstate`.
inline void finish_block(const std::uint32_t* midstate, const std::uint8_t* block,
                         std::uint8_t* out) {
#ifdef FAIRSFE_X86_KERNELS
  if (crypto_kernels::cpu_has_sha_ni()) {
    digest_shani(midstate, block, out);
    return;
  }
#endif
  std::uint32_t state[8];
  std::memcpy(state, midstate, sizeof(state));
  crypto_kernels::sha256_compress_portable(state, block);
  put_digest(state, out);
}

/// Two independent 32-byte hashes, interleaved two-way on SHA-NI: the tail
/// of sha256_32_batch.
void sha256_32x2(const std::uint8_t* in0, const std::uint8_t* in1, std::uint8_t* out0,
                 std::uint8_t* out1) {
  std::uint8_t block0[Sha256::kBlockSize], block1[Sha256::kBlockSize];
  pad_32(block0, in0);
  pad_32(block1, in1);
#ifdef FAIRSFE_X86_KERNELS
  if (crypto_kernels::cpu_has_sha_ni()) {
    digest_shani_x2(block0, block1, out0, out1);
    return;
  }
#endif
  finish_block(crypto_kernels::kSha256Iv, block0, out0);
  finish_block(crypto_kernels::kSha256Iv, block1, out1);
}

}  // namespace

namespace crypto_kernels {

#ifdef FAIRSFE_X86_KERNELS

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* block) {
  const std::uint32_t* const in = state;
  compress_shani<1>(&in, &block, &state, nullptr);
}

// The 16-lane kernels keep word w of every message in vector w, one message
// per 32-bit lane, and run the portable compression lane-wise. One body
// serves both: a pre-padded block loads all sixteen words, while a 32-byte
// message is one block whose words 8..15 are its constant padding, so those
// words never occupy a register: their K[t] + W[t] is a broadcast constant,
// and the schedule terms that read them fold into schedule_constant(t).
//
// GCC 12's avx512fintrin.h passes _mm512_undefined_epi32() as the unused
// merge source of rotations, unpacks and lane shuffles, which raises
// -Wuninitialized / -Wmaybe-uninitialized wherever they are inlined (GCC bug
// 105593). Silenced for the AVX-512 kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

__attribute__((target("avx512f"))) inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}
__attribute__((target("avx512f"))) inline __m512i add(__m512i a, __m512i b) {
  return _mm512_add_epi32(a, b);
}
__attribute__((target("avx512f"))) inline __m512i bcast(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<int>(v));
}

/// 4x4 transpose of the dwords inside each 128-bit lane of r[0..3].
__attribute__((target("avx512f"))) inline void transpose4_epi32(__m512i* r) {
  const __m512i ab_lo = _mm512_unpacklo_epi32(r[0], r[1]);
  const __m512i cd_lo = _mm512_unpacklo_epi32(r[2], r[3]);
  const __m512i ab_hi = _mm512_unpackhi_epi32(r[0], r[1]);
  const __m512i cd_hi = _mm512_unpackhi_epi32(r[2], r[3]);
  r[0] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
  r[1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
  r[2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
  r[3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
}

/// Sixteen lanes of SHA-256 from the IV: the 32-byte messages at
/// in[0..512) (kFixed32) or the pre-padded blocks at in[0..1024), digests to
/// out[0..512). The two differ only in how the message words are loaded.
template <bool kFixed32>
__attribute__((target("avx512f,avx512bw"), always_inline)) inline void sha256_x16(
    const std::uint8_t* in, std::uint8_t* out) {
  // Byte-swaps each 32-bit word: big-endian message words in, digest out.
  const __m512i kBswap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203);

  // Both ways in leave word t of message kLane[i] in dword i of w[t], the
  // fixed lane order the way out undoes.
  static constexpr int kLane[16] = {0, 2, 4, 6, 1, 3, 5, 7, 8, 10, 12, 14, 9, 11, 13, 15};
  __m512i w[16] = {};
  if constexpr (kFixed32) {
    // z[k] holds messages 2k, 2k + 1. After the 4x4 dword transposes,
    // 128-bit lane c of z[4h + j] holds word 4 (c & 1) + j of messages
    // 8h + (c >> 1) + {0, 2, 4, 6}; one lane shuffle per word then gathers
    // all sixteen messages.
    __m512i z[8];
    for (int k = 0; k < 8; ++k) {
      z[k] = _mm512_shuffle_epi8(_mm512_loadu_si512(in + 64 * k), kBswap);
    }
    transpose4_epi32(z);
    transpose4_epi32(z + 4);
    for (int j = 0; j < 4; ++j) {
      w[j] = _mm512_shuffle_i32x4(z[j], z[4 + j], 0x88);
      w[4 + j] = _mm512_shuffle_i32x4(z[j], z[4 + j], 0xDD);
    }
  } else {
    // z[i] holds block kLane[i]. After the 4x4 dword transposes, 128-bit
    // lane c of z[4q + j] holds word 4c + j of the blocks in z[4q..4q+3];
    // two rounds of lane shuffles gather word 4c + j of all sixteen.
    __m512i z[16];
    for (int i = 0; i < 16; ++i) {
      z[i] = _mm512_shuffle_epi8(_mm512_loadu_si512(in + 64 * kLane[i]), kBswap);
    }
    for (int q = 0; q < 16; q += 4) transpose4_epi32(z + q);
    for (int j = 0; j < 4; ++j) {
      const __m512i ab_lo = _mm512_shuffle_i32x4(z[j], z[4 + j], 0x44);
      const __m512i ab_hi = _mm512_shuffle_i32x4(z[j], z[4 + j], 0xEE);
      const __m512i cd_lo = _mm512_shuffle_i32x4(z[8 + j], z[12 + j], 0x44);
      const __m512i cd_hi = _mm512_shuffle_i32x4(z[8 + j], z[12 + j], 0xEE);
      w[j] = _mm512_shuffle_i32x4(ab_lo, cd_lo, 0x88);
      w[4 + j] = _mm512_shuffle_i32x4(ab_lo, cd_lo, 0xDD);
      w[8 + j] = _mm512_shuffle_i32x4(ab_hi, cd_hi, 0x88);
      w[12 + j] = _mm512_shuffle_i32x4(ab_hi, cd_hi, 0xDD);
    }
  }

  __m512i a = bcast(kSha256Iv[0]), b = bcast(kSha256Iv[1]), c = bcast(kSha256Iv[2]);
  __m512i d = bcast(kSha256Iv[3]), e = bcast(kSha256Iv[4]), f = bcast(kSha256Iv[5]);
  __m512i g = bcast(kSha256Iv[6]), h = bcast(kSha256Iv[7]);
#pragma GCC unroll 64
  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      __m512i x = bcast(schedule_constant<kFixed32>(t));
      if (message_word<kFixed32>(t - 2)) {
        const __m512i v = w[(t - 2) & 15];
        x = add(x, xor3(_mm512_ror_epi32(v, 17), _mm512_ror_epi32(v, 19),
                        _mm512_srli_epi32(v, 10)));
      }
      if (message_word<kFixed32>(t - 7)) x = add(x, w[(t - 7) & 15]);
      if (message_word<kFixed32>(t - 15)) {
        const __m512i v = w[(t - 15) & 15];
        x = add(x, xor3(_mm512_ror_epi32(v, 7), _mm512_ror_epi32(v, 18),
                        _mm512_srli_epi32(v, 3)));
      }
      if (message_word<kFixed32>(t - 16)) x = add(x, w[(t - 16) & 15]);
      w[t & 15] = x;
    }
    const __m512i kw = message_word<kFixed32>(t) ? add(w[t & 15], bcast(kK[t]))
                                                 : bcast(kK[t] + kPad32[t - 8]);
    const __m512i s1 =
        xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11), _mm512_ror_epi32(e, 25));
    const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);  // e ? f : g
    const __m512i t1 = add(add(h, s1), add(ch, kw));
    const __m512i s0 =
        xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13), _mm512_ror_epi32(a, 22));
    const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);  // majority
    h = g;
    g = f;
    f = e;
    e = add(d, t1);
    d = c;
    c = b;
    b = a;
    a = add(t1, add(s0, maj));
  }

  // Transpose out: the exact inverse of the 32-byte way in.
  const __m512i v[8] = {a, b, c, d, e, f, g, h};
  __m512i z[8];
  const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
  const __m512i hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
  for (int j = 0; j < 4; ++j) {
    const __m512i x0 = _mm512_shuffle_epi8(add(v[j], bcast(kSha256Iv[j])), kBswap);
    const __m512i x1 = _mm512_shuffle_epi8(add(v[4 + j], bcast(kSha256Iv[4 + j])), kBswap);
    z[j] = _mm512_permutex2var_epi64(x0, lo, x1);
    z[4 + j] = _mm512_permutex2var_epi64(x0, hi, x1);
  }
  transpose4_epi32(z);
  transpose4_epi32(z + 4);
  for (int k = 0; k < 8; ++k) _mm512_storeu_si512(out + 64 * k, z[k]);
}

}  // namespace

__attribute__((target("avx512f,avx512bw"))) void sha256_32x16_avx512(const std::uint8_t* in,
                                                                     std::uint8_t* out) {
  sha256_x16<true>(in, out);
}

__attribute__((target("avx512f,avx512bw"))) void sha256_blocks16_avx512(
    const std::uint8_t* blocks, std::uint8_t* out) {
  sha256_x16<false>(blocks, out);
}

#pragma GCC diagnostic pop

bool cpu_has_sha_ni() {
  // Function-local so the cpuid probe cannot race static initialization in
  // other translation units (scenario registration hashes at startup).
  static const bool have = __builtin_cpu_supports("sha") &&
                           __builtin_cpu_supports("sse4.1") &&
                           __builtin_cpu_supports("ssse3");
  return have;
}

#else

bool cpu_has_sha_ni() { return false; }

#endif  // FAIRSFE_X86_KERNELS

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void sha256_finish_single_block(const std::uint32_t* midstate, std::uint64_t prefix_len,
                                ByteView tail, std::uint8_t* out) {
  FAIRSFE_DCHECK(tail.size() <= kSha256MaxSingleBlockTail, "tail needs a second block");
  std::uint8_t block[Sha256::kBlockSize];
  pad_single_block(block, prefix_len, tail);
  finish_block(midstate, block, out);
}

void sha256_32(const std::uint8_t* in, std::uint8_t* out) {
  std::uint8_t block[Sha256::kBlockSize];
  pad_32(block, in);
  finish_block(kSha256Iv, block, out);
}

void sha256_32_batch(const std::uint8_t* in, std::uint8_t* out, std::size_t count) {
  constexpr std::size_t kMsg = 32;
  std::size_t i = 0;
#ifdef FAIRSFE_X86_KERNELS
  if (cpu_has_avx512()) {
    for (; count - i >= 16; i += 16) sha256_32x16_avx512(in + i * kMsg, out + i * kMsg);
  }
#endif
  for (; count - i >= 2; i += 2) {
    sha256_32x2(in + i * kMsg, in + (i + 1) * kMsg, out + i * kMsg, out + (i + 1) * kMsg);
  }
  if (i < count) sha256_32(in + i * kMsg, out + i * kMsg);
}


}  // namespace crypto_kernels

Sha256::Sha256() {
  std::memcpy(state_.data(), crypto_kernels::kSha256Iv, sizeof(crypto_kernels::kSha256Iv));
}

void Sha256::process_block(const std::uint8_t* block) {
  compress(state_.data(), block);
}
Sha256& Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

void Sha256::finish(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // One 0x80 byte, then zeros up to offset 56 of the final block (one extra
  // block when fewer than 8 bytes remain for the length field).
  static constexpr std::uint8_t kPad[kBlockSize + 1] = {0x80};
  const std::size_t pad_len =
      1 + ((kBlockSize + 56 - (buf_len_ + 1) % kBlockSize) % kBlockSize);
  update(ByteView(kPad, pad_len));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  std::memcpy(buf_.data() + 56, len_be, 8);
  finish_block(state_.data(), buf_.data(), out);
}

Bytes Sha256::finish() {
  Bytes out(kDigestSize);
  finish(out.data());
  return out;
}

void sha256(ByteView data, std::uint8_t* out) {
  // Short messages (every fork label, Lamport message, commitment opening
  // and GK share hash) finish in one stack-padded block; a 32-byte one (a
  // digest hashed again) takes the fixed entry, whose padding needs no byte
  // stores.
  if (data.size() == 32) {
    crypto_kernels::sha256_32(data.data(), out);
  } else if (data.size() <= crypto_kernels::kSha256MaxSingleBlockTail) {
    crypto_kernels::sha256_finish_single_block(crypto_kernels::kSha256Iv, 0, data, out);
  } else {
    Sha256().update(data).finish(out);
  }
}

Bytes sha256(ByteView data) {
  Bytes out(Sha256::kDigestSize);
  sha256(data, out.data());
  return out;
}

void Sha256Batch::add(ByteView msg, std::uint8_t* out) {
  if (msg.size() > crypto_kernels::kSha256MaxSingleBlockTail ||
      !crypto_kernels::cpu_has_avx512()) {
    sha256(msg, out);
    return;
  }
  pad_single_block(blocks_ + queued_ * Sha256::kBlockSize, 0, msg);
  outs_[queued_++] = out;
  if (queued_ == kLanes) flush();
}

void Sha256Batch::flush() {
#ifdef FAIRSFE_X86_KERNELS
  if (queued_ == kLanes) {
    std::uint8_t digests[kLanes * Sha256::kDigestSize];
    crypto_kernels::sha256_blocks16_avx512(blocks_, digests);
    for (std::size_t i = 0; i < kLanes; ++i) {
      std::memcpy(outs_[i], digests + i * Sha256::kDigestSize, Sha256::kDigestSize);
    }
    queued_ = 0;
    return;
  }
#endif
  for (std::size_t i = 0; i < queued_; ++i) {
    finish_block(crypto_kernels::kSha256Iv, blocks_ + i * Sha256::kBlockSize, outs_[i]);
  }
  queued_ = 0;
}

Bytes sha256_labeled(std::string_view label, ByteView data) {
  Writer w;
  w.str(label).raw(data);
  return sha256(w.bytes());
}

}  // namespace fairsfe
