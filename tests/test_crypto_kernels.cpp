// The SIMD crypto kernels against their scalar references. ChaCha20's batch
// path (16 blocks on AVX-512, 8 on AVX2, 4 on SSE2) must reproduce the
// one-block reference keystream at every length through the whole
// 16 -> 8 -> 4 -> scalar cascade, from every buffer offset and across the
// counter wrap, and each batch kernel must do so when called directly; so
// must a long stream of short draws, which widens to 16-block refills, and
// its copies. The SHA-NI compression, the 16-lane AVX-512 hashes of 32-byte
// messages and of padded blocks, the fixed 32-byte entries (sha256_32,
// sha256_32_batch at every count 0..40) and Sha256Batch (every one-block
// length at every count 0..40) must reproduce the portable compression; the
// single-block finishes of sha256() and HMAC must reproduce the generic
// update/pad pipeline. A kernel the CPU lacks is skipped, never emulated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/lamport.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"

namespace fairsfe {
namespace {

namespace ck = crypto_kernels;

Bytes test_key() {
  Bytes k(ChaCha20::kKeySize);
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = static_cast<std::uint8_t>(7 * i + 1);
  return k;
}

Bytes test_nonce() {
  Bytes n(ChaCha20::kNonceSize);
  for (std::size_t i = 0; i < n.size(); ++i) n[i] = static_cast<std::uint8_t>(0xa0 + i);
  return n;
}

/// The RFC 8439 state ChaCha20(test_key(), nonce, counter) starts from.
std::array<std::uint32_t, 16> test_state(std::uint32_t counter,
                                         const Bytes& nonce = test_nonce()) {
  const Bytes key = test_key();
  const auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0] | p[1] << 8 | p[2] << 16) |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::array<std::uint32_t, 16> s{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) s[4 + i] = le32(key.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = le32(nonce.data() + 4 * i);
  return s;
}

/// n keystream bytes from the one-block scalar reference alone.
Bytes reference_keystream(std::uint32_t counter, std::size_t n,
                          const Bytes& nonce = test_nonce()) {
  std::array<std::uint32_t, 16> s = test_state(counter, nonce);
  Bytes out((n + ChaCha20::kBlockSize - 1) / ChaCha20::kBlockSize * ChaCha20::kBlockSize);
  for (std::size_t off = 0; off < out.size(); off += ChaCha20::kBlockSize, ++s[12]) {
    ck::chacha20_block_scalar(s.data(), out.data() + off);
  }
  out.resize(n);
  return out;
}

TEST(CryptoKernels, ChaChaFillMatchesScalarAtEveryLength) {
  // Up to 34 blocks: every mix of 16-, 8- and 4-block batches and a scalar
  // tail, e.g. 31 blocks = 16 + 8 + 4 + 3.
  const Bytes ref = reference_keystream(0, 2200 + 64);
  for (std::size_t len = 0; len <= 2200; ++len) {
    ChaCha20 c(test_key(), test_nonce());
    Bytes out(len + 64);
    c.fill(out.data(), len);
    c.fill(out.data() + len, 64);  // the stream continues where the batch left it
    ASSERT_EQ(out, Bytes(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(len + 64)))
        << "len " << len;
  }
}

TEST(CryptoKernels, ChaChaFillMatchesScalarFromEveryBlockOffset) {
  // After the buffered block, 31 or 32 whole blocks remain: a 16-block
  // batch and the narrower ones behind it.
  const Bytes ref = reference_keystream(0, 64 + 2048);
  for (std::size_t pos = 0; pos <= 64; ++pos) {
    ChaCha20 c(test_key(), test_nonce());
    Bytes out(pos + 2048);
    c.fill(out.data(), pos);
    c.fill(out.data() + pos, 2048);
    ASSERT_EQ(out, Bytes(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(pos + 2048)))
        << "block_pos " << pos;
  }
}

TEST(CryptoKernels, ChaChaCounterWrapsLikeScalar) {
  // Five blocks before 2^32: every batch width straddles the wrap.
  const std::uint32_t start = 0xFFFFFFFBu;
  const Bytes ref = reference_keystream(start, 40 * 64);
  for (std::size_t pre : {0u, 1u, 64u, 200u}) {
    ChaCha20 c(test_key(), test_nonce(), start);
    Bytes out(ref.size());
    c.fill(out.data(), pre);
    c.fill(out.data() + pre, out.size() - pre);
    EXPECT_EQ(out, ref) << "pre " << pre;
  }
}

TEST(CryptoKernels, ChaChaXorIntoMatchesProcessAndReference) {
  Rng rng(11);
  for (std::size_t len : {0u, 1u, 63u, 64u, 255u, 256u, 257u, 511u, 512u, 700u, 4096u, 5000u}) {
    for (std::size_t pre : {0u, 5u, 64u}) {
      const Bytes data = rng.bytes(len);
      const Bytes ks = reference_keystream(0, pre + len);
      Bytes expect(data);
      for (std::size_t i = 0; i < len; ++i) expect[i] ^= ks[pre + i];

      ChaCha20 a(test_key(), test_nonce());
      Bytes skip(pre);
      a.fill(skip);
      Bytes got(data);
      a.xor_into(got);
      EXPECT_EQ(got, expect) << "xor_into len " << len << " pre " << pre;

      ChaCha20 b(test_key(), test_nonce());
      b.fill(skip);
      EXPECT_EQ(b.process(data), expect) << "process len " << len << " pre " << pre;
    }
  }
}

/// Draws `n` keystream bytes from `c` in pieces of 1..300 bytes, each taken
/// by fill, by xor_into over zeros, or as the 8- and 1-byte fills behind
/// Rng::u64 and Rng::bit, in an order `pick` chooses.
Bytes draw_mixed(ChaCha20& c, std::size_t n, Rng& pick) {
  Bytes out(n);
  for (std::size_t done = 0; done < n;) {
    std::size_t piece = 1 + pick.below(300);
    switch (pick.below(4)) {
      case 0: break;
      case 1: piece = 8; break;
      case 2: piece = 1; break;
      default: {
        piece = std::min(piece, n - done);
        c.xor_into({out.data() + done, piece});  // out is still zero here
        done += piece;
        continue;
      }
    }
    piece = std::min(piece, n - done);
    c.fill(out.data() + done, piece);
    done += piece;
  }
  return out;
}

TEST(CryptoKernels, ChaChaWidenedRefillMatchesScalarUnderMixedDraws) {
  // Short draws widen a stream to 16-block refills after its fourth scalar
  // refill; the whole-block path runs only once a refill is used up.
  const std::size_t n = 80 * 1024;
  const Bytes ref = reference_keystream(0, n);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng pick(100 + seed);
    ChaCha20 c(test_key(), test_nonce());
    ASSERT_EQ(draw_mixed(c, n, pick), ref) << "seed " << seed;
  }
}

TEST(CryptoKernels, ChaChaWidenedRefillWrapsLikeScalar) {
  // Starting 20 to 1 blocks before 2^32, the counter wraps inside one of
  // the first wide refills.
  for (std::uint32_t back = 1; back <= 20; ++back) {
    const std::uint32_t start = 0u - back;
    const Bytes ref = reference_keystream(start, 8 * 1024);
    Rng pick(200 + back);
    ChaCha20 c(test_key(), test_nonce(), start);
    ASSERT_EQ(draw_mixed(c, ref.size(), pick), ref) << "start 2^32 - " << back;
  }
}

TEST(CryptoKernels, CopiesOfAWidenedStreamContinueIndependently) {
  // 700 bytes in 7-byte draws: the copy is made 444 bytes into the first
  // wide refill, and each stream then draws on with its own piece sizes.
  const Bytes ref = reference_keystream(0, 8 * 1024);
  ChaCha20 c(test_key(), test_nonce());
  Bytes head(700);
  for (std::size_t i = 0; i < head.size(); i += 7) c.fill(head.data() + i, 7);
  ASSERT_EQ(head, Bytes(ref.begin(), ref.begin() + 700));
  ChaCha20 copy = c;
  Rng pick_a(300), pick_b(301);
  const Bytes a = draw_mixed(c, 5000, pick_a);
  const Bytes b = draw_mixed(copy, 7000, pick_b);
  EXPECT_EQ(a, Bytes(ref.begin() + 700, ref.begin() + 5700));
  EXPECT_EQ(b, Bytes(ref.begin() + 700, ref.begin() + 7700));

  // An Rng keys ChaCha20 with its seed under the zero nonce. Its u64 and
  // bit draws are the next 8 and 1 keystream bytes.
  const Bytes zero_nonce(ChaCha20::kNonceSize, 0);
  const Bytes rng_ref = reference_keystream(0, 4096, zero_nonce);
  Rng r(test_key());
  std::size_t at = 0;
  for (; at < 700; at += 8) {
    std::uint64_t want = 0;
    for (int i = 0; i < 8; ++i) want |= std::uint64_t{rng_ref[at + i]} << (8 * i);
    ASSERT_EQ(r.u64(), want) << "offset " << at;
  }
  Rng r_copy = r;
  for (std::size_t i = at; i < at + 300; ++i) {
    ASSERT_EQ(r.bit(), (rng_ref[i] & 1) != 0) << "offset " << i;
  }
  EXPECT_EQ(r.bytes(1000), Bytes(rng_ref.begin() + static_cast<std::ptrdiff_t>(at + 300),
                                 rng_ref.begin() + static_cast<std::ptrdiff_t>(at + 1300)));
  EXPECT_EQ(r_copy.bytes(2000), Bytes(rng_ref.begin() + static_cast<std::ptrdiff_t>(at),
                                      rng_ref.begin() + static_cast<std::ptrdiff_t>(at + 2000)));
}

#ifdef FAIRSFE_X86_KERNELS

void expect_batch_kernel(void (*kernel)(const std::uint32_t*, std::uint8_t*, bool),
                         std::size_t blocks) {
  Rng rng(12);
  // Counters just below 2^32 wrap inside one call: 2^32 - 1 at every
  // width, 2^32 - 5 and 2^32 - 7 at 8 and 16 blocks.
  for (const std::uint32_t counter : {0u, 1u, 0xFFFFFFF9u, 0xFFFFFFFBu, 0xFFFFFFFFu}) {
    const std::array<std::uint32_t, 16> s = test_state(counter);
    const Bytes ref = reference_keystream(counter, blocks * 64);
    Bytes out(blocks * 64 + 1);  // odd offset: the kernels must not need alignment
    kernel(s.data(), out.data() + 1, false);
    EXPECT_EQ(Bytes(out.begin() + 1, out.end()), ref) << "counter " << counter;

    const Bytes data = rng.bytes(blocks * 64);
    Bytes x(1);
    x.insert(x.end(), data.begin(), data.end());
    kernel(s.data(), x.data() + 1, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(x[1 + i], data[i] ^ ref[i]) << "xor byte " << i << " counter " << counter;
    }
  }
}

TEST(CryptoKernels, ChaChaSse2FourBlocksMatchScalar) {
  expect_batch_kernel(ck::chacha20_blocks4_sse2, 4);
}

TEST(CryptoKernels, ChaChaAvx2EightBlocksMatchScalar) {
  if (!ck::cpu_has_avx2()) GTEST_SKIP() << "no AVX2";
  expect_batch_kernel(ck::chacha20_blocks8_avx2, 8);
}

TEST(CryptoKernels, ChaChaAvx512SixteenBlocksMatchScalar) {
  if (!ck::cpu_has_avx512()) GTEST_SKIP() << "no AVX-512";
  expect_batch_kernel(ck::chacha20_blocks16_avx512, 16);
}

TEST(CryptoKernels, ShaNiCompressionMatchesPortable) {
  if (!ck::cpu_has_sha_ni()) GTEST_SKIP() << "no SHA-NI";
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes block = rng.bytes(64), s = rng.bytes(32);
    std::uint32_t ref[8], hw[8];
    std::memcpy(ref, s.data(), sizeof(ref));
    std::memcpy(hw, s.data(), sizeof(hw));
    ck::sha256_compress_portable(ref, block.data());
    ck::sha256_compress_shani(hw, block.data());
    ASSERT_EQ(std::memcmp(hw, ref, sizeof(ref)), 0) << "trial " << trial;
  }
}

#endif  // FAIRSFE_X86_KERNELS

/// SHA-256 of `msg` through the portable compression alone.
Bytes portable_sha256(ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int b = 7; b >= 0; --b) {
    padded.push_back(static_cast<std::uint8_t>((msg.size() * 8) >> (8 * b)));
  }
  std::uint32_t state[8];
  std::memcpy(state, ck::kSha256Iv, sizeof(state));
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    ck::sha256_compress_portable(state, padded.data() + off);
  }
  Bytes out(32);
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  }
  return out;
}

Bytes portable_sha256_32(const std::uint8_t* in) { return portable_sha256({in, 32}); }

TEST(CryptoKernels, Sha256Fixed32MatchesPortable) {
  Rng rng(14);
  for (int trial = 0; trial < 10000; ++trial) {
    const Bytes in = rng.bytes(64);
    const Bytes ref0 = portable_sha256_32(in.data()), ref1 = portable_sha256_32(in.data() + 32);
    Bytes one(32), two(64);
    ck::sha256_32(in.data(), one.data());
    ck::sha256_32_batch(in.data(), two.data(), 2);
    ASSERT_EQ(one, ref0) << "trial " << trial;
    ASSERT_EQ(Bytes(two.begin(), two.begin() + 32), ref0) << "trial " << trial;
    ASSERT_EQ(Bytes(two.begin() + 32, two.end()), ref1) << "trial " << trial;
  }
}

#ifdef FAIRSFE_X86_KERNELS

TEST(CryptoKernels, Sha256Avx512SixteenLanesMatchPortable) {
  if (!ck::cpu_has_avx512()) GTEST_SKIP() << "no AVX-512";
  Rng rng(17);
  for (int trial = 0; trial < 10000 / 16; ++trial) {
    const Bytes in = rng.bytes(16 * 32 + 1);
    Bytes out(16 * 32 + 1);  // odd offsets: the kernel must not need alignment
    ck::sha256_32x16_avx512(in.data() + 1, out.data() + 1);
    for (std::size_t lane = 0; lane < 16; ++lane) {
      const auto at = static_cast<std::ptrdiff_t>(1 + 32 * lane);
      ASSERT_EQ(Bytes(out.begin() + at, out.begin() + at + 32),
                portable_sha256_32(in.data() + at))
          << "trial " << trial << " lane " << lane;
    }
  }
}

TEST(CryptoKernels, Sha256Avx512SixteenBlocksMatchPortable) {
  // Arbitrary blocks, not only padded ones: every word of every lane is a
  // message word.
  if (!ck::cpu_has_avx512()) GTEST_SKIP() << "no AVX-512";
  Rng rng(19);
  for (int trial = 0; trial < 10000 / 16; ++trial) {
    const Bytes in = rng.bytes(16 * 64 + 1);
    Bytes out(16 * 32 + 1);  // odd offsets: the kernel must not need alignment
    ck::sha256_blocks16_avx512(in.data() + 1, out.data() + 1);
    for (std::size_t lane = 0; lane < 16; ++lane) {
      std::uint32_t state[8];
      std::memcpy(state, ck::kSha256Iv, sizeof(state));
      ck::sha256_compress_portable(state, in.data() + 1 + 64 * lane);
      for (int i = 0; i < 8; ++i) {
        for (int b = 0; b < 4; ++b) {
          ASSERT_EQ(out[1 + 32 * lane + 4 * i + b],
                    static_cast<std::uint8_t>(state[i] >> (24 - 8 * b)))
              << "trial " << trial << " lane " << lane;
        }
      }
    }
  }
}

#endif  // FAIRSFE_X86_KERNELS

TEST(CryptoKernels, Sha256BatchMatchesPortableAtEveryCount) {
  // Every count 0..40 (zero to two 16-lane groups plus any pair/single
  // tail), from an unaligned source; the bytes around the output stay put.
  Rng rng(18);
  const Bytes in = rng.bytes(1 + 40 * 32);
  for (std::size_t count = 0; count <= 40; ++count) {
    Bytes out(2 + 40 * 32, 0xee);
    ck::sha256_32_batch(in.data() + 1, out.data() + 1, count);
    ASSERT_EQ(out[0], 0xee) << "count " << count;
    for (std::size_t i = 0; i < count; ++i) {
      const auto at = static_cast<std::ptrdiff_t>(1 + 32 * i);
      ASSERT_EQ(Bytes(out.begin() + at, out.begin() + at + 32),
                portable_sha256_32(in.data() + at))
          << "count " << count << " message " << i;
    }
    for (std::size_t i = 1 + 32 * count; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 0xee) << "count " << count << " byte " << i;
    }
  }
}

TEST(CryptoKernels, Sha256BatchMatchesPortableAtEveryLengthAndCount) {
  // Every one-block length 0..55 and a few longer ones that add() hashes
  // itself, at every count 0..40 (up to two 16-lane groups and a tail),
  // from an unaligned source into an unaligned output whose other bytes
  // stay put.
  Rng rng(20);
  const Bytes in = rng.bytes(1 + 40 * 120);
  std::vector<std::size_t> lengths(56);
  for (std::size_t len = 0; len < lengths.size(); ++len) lengths[len] = len;
  lengths.insert(lengths.end(), {56, 64, 119});
  for (const std::size_t len : lengths) {
    for (std::size_t count = 0; count <= 40; ++count) {
      Bytes out(2 + 40 * 32, 0xee);
      Sha256Batch batch;
      for (std::size_t i = 0; i < count; ++i) {
        batch.add({in.data() + 1 + len * i, len}, out.data() + 1 + 32 * i);
      }
      batch.flush();
      ASSERT_EQ(out[0], 0xee) << "len " << len << " count " << count;
      for (std::size_t i = 0; i < count; ++i) {
        const auto at = static_cast<std::ptrdiff_t>(1 + 32 * i);
        ASSERT_EQ(Bytes(out.begin() + at, out.begin() + at + 32),
                  portable_sha256({in.data() + 1 + len * i, len}))
            << "len " << len << " count " << count << " message " << i;
      }
      for (std::size_t i = 1 + 32 * count; i < out.size(); ++i) {
        ASSERT_EQ(out[i], 0xee) << "len " << len << " count " << count << " byte " << i;
      }
    }
  }
}

TEST(CryptoKernels, OneShotSha256MatchesIncrementalAtPaddingBoundaries) {
  Rng rng(15);
  for (const std::size_t len : {0u, 1u, 31u, 32u, 55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes msg = rng.bytes(len);
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i) h.update(ByteView(msg).subspan(i, 1));
    EXPECT_EQ(sha256(msg), h.finish()) << "len " << len;
  }
}

TEST(CryptoKernels, HmacSingleBlockFinishMatchesDefinition) {
  Rng rng(16);
  for (const std::size_t key_len : {16u, 64u, 100u}) {
    const Bytes key = rng.bytes(key_len);
    Bytes k = key.size() > 64 ? Sha256().update(key).finish() : key;
    k.resize(64, 0);
    Bytes ipad(k), opad(k);
    for (std::size_t i = 0; i < 64; ++i) {
      ipad[i] ^= 0x36;
      opad[i] ^= 0x5c;
    }
    const HmacSha256 mac(key);
    for (std::size_t len = 0; len <= 130; ++len) {
      const Bytes msg = rng.bytes(len);
      const Bytes inner = Sha256().update(ipad).update(msg).finish();
      const Bytes expect = Sha256().update(opad).update(inner).finish();
      ASSERT_EQ(mac.mac(msg), expect) << "key " << key_len << " len " << len;
    }
  }
}

TEST(CryptoKernels, LamportKeyPairPinned) {
  // Recorded before the batch kernels existed: the key pair and the stream
  // position after it are fixed by the keystream and the hash alone.
  Rng rng(1);
  const LamportKeyPair kp = lamport_gen(rng);
  Bytes both = kp.signing_key;
  both.insert(both.end(), kp.verification_key.begin(), kp.verification_key.end());
  EXPECT_EQ(to_hex(sha256(both)),
            "3b01c4c45796a5e686b6df66f25a678671c21cdd381df9a1595df09f2c60ff4c");
  EXPECT_EQ(rng.u64(), 13161656297877023829ull);
}

}  // namespace
}  // namespace fairsfe
