// Tests for the F_{2^61-1} field, one-time MAC, commitments, RNG, and bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/commitment.h"
#include "crypto/field.h"
#include "crypto/mac.h"
#include "crypto/rng.h"

namespace fairsfe {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(to_hex(b), "00ff10ab");
  EXPECT_EQ(from_hex("00ff10ab"), b);
  EXPECT_EQ(from_hex("0"), std::nullopt);
  EXPECT_EQ(from_hex("zz"), std::nullopt);
}

TEST(Bytes, WriterReaderRoundTrip) {
  Writer w;
  w.u8(7).u32(123456).u64(0xdeadbeefcafebabeULL).blob(bytes_of("hello")).str("world");
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.blob(), bytes_of("hello"));
  EXPECT_EQ(r.str(), "world");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, ReaderRejectsTruncation) {
  Writer w;
  w.blob(bytes_of("hello"));
  Bytes data = w.take();
  data.pop_back();
  Reader r(data);
  EXPECT_EQ(r.blob(), std::nullopt);
}

TEST(Bytes, XorAndCtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {3, 2, 1};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{2, 0, 2}));
  EXPECT_TRUE(ct_equal(a, a));
  EXPECT_FALSE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, Bytes{1, 2}));
}

TEST(Bytes, InsertAndAssignFromOwnStorage) {
  // Bytes is its own container (crypto/bytes.h); these are the
  // std::vector<std::uint8_t> results it must reproduce, including sources
  // that lie inside the buffer being grown (ASan builds check the reads).
  // Bytes::insert appends only, as every caller does.
  std::vector<std::uint8_t> want = {1, 2, 3};
  Bytes b = {1, 2, 3};
  const auto same = [&] { return std::equal(b.begin(), b.end(), want.begin(), want.end()); };
  for (int k = 0; k < 12; ++k) {  // appends that reallocate, past 4 KiB
    want.insert(want.end(), want.begin(), want.end());
    b.insert(b.end(), b.begin(), b.end());
    ASSERT_TRUE(same()) << "append " << k;
  }
  const std::list<int> listed = {7, 8, 9};
  want.insert(want.end(), listed.begin(), listed.end());
  b.insert(b.end(), listed.begin(), listed.end());
  EXPECT_TRUE(same());
  want.assign(want.begin() + 2, want.begin() + 6000);
  b.assign(b.begin() + 2, b.begin() + 6000);
  EXPECT_TRUE(same());
  want.resize(9000, 0x5a);
  b.resize(9000, 0x5a);
  EXPECT_TRUE(same());
  want.resize(10);
  b.resize(10);
  EXPECT_TRUE(same());
  EXPECT_EQ(Bytes(listed.begin(), listed.end()), (Bytes{7, 8, 9}));
}

TEST(Field, BasicArithmetic) {
  const Fp a(5), b(7);
  EXPECT_EQ((a + b).value(), 12u);
  EXPECT_EQ((b - a).value(), 2u);
  EXPECT_EQ((a * b).value(), 35u);
  EXPECT_EQ((a - b).value(), Fp::kP - 2);
}

TEST(Field, ReductionAtModulus) {
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);
  EXPECT_EQ(Fp(Fp::kP + 5).value(), 5u);
  EXPECT_EQ(Fp(~std::uint64_t{0}).value(), (~std::uint64_t{0}) % Fp::kP);
}

TEST(Field, MultiplicationLargeOperands) {
  const Fp a(Fp::kP - 1), b(Fp::kP - 2);
  // (p-1)(p-2) = p^2 - 3p + 2 ≡ 2 (mod p)
  EXPECT_EQ((a * b).value(), 2u);
}

TEST(Field, InverseProperty) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    Fp x = Fp::random(rng);
    if (x == Fp()) continue;
    EXPECT_EQ(x * x.inverse(), Fp(1));
  }
}

TEST(Field, PowMatchesRepeatedMultiplication) {
  const Fp x(3);
  Fp acc(1);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(x.pow(e), acc);
    acc *= x;
  }
}

TEST(Field, BytesToFieldInjectiveFraming) {
  // Same content, different lengths must map to different limb vectors.
  const auto a = bytes_to_field(Bytes{0, 0});
  const auto b = bytes_to_field(Bytes{0, 0, 0});
  EXPECT_NE(a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(),
                                               [](Fp x, Fp y) { return x == y; }),
            true);
}

TEST(Field, FpSerializationRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Fp x = Fp::random(rng);
    EXPECT_EQ(fp_from_bytes(fp_to_bytes(x)), x);
  }
  // Non-canonical value (>= p) rejected.
  Writer w;
  w.u64(Fp::kP);
  EXPECT_EQ(fp_from_bytes(w.bytes()), std::nullopt);
}

TEST(Mac, TagVerifies) {
  Rng rng(3);
  const MacKey k = MacKey::random(rng);
  const Bytes msg = bytes_of("authenticated message");
  EXPECT_TRUE(mac_verify(k, msg, mac_tag(k, msg)));
}

TEST(Mac, RejectsModifiedMessage) {
  Rng rng(4);
  const MacKey k = MacKey::random(rng);
  const Bytes tag = mac_tag(k, bytes_of("msg"));
  EXPECT_FALSE(mac_verify(k, bytes_of("msh"), tag));
  EXPECT_FALSE(mac_verify(k, bytes_of("msg0"), tag));
}

TEST(Mac, RejectsWrongKey) {
  Rng rng(5);
  const MacKey k1 = MacKey::random(rng);
  const MacKey k2 = MacKey::random(rng);
  const Bytes msg = bytes_of("msg");
  EXPECT_FALSE(mac_verify(k2, msg, mac_tag(k1, msg)));
}

TEST(Mac, LengthExtensionDistinct) {
  // Messages that are prefixes of each other get different tags (framing limb).
  Rng rng(6);
  const MacKey k = MacKey::random(rng);
  EXPECT_NE(mac_tag(k, Bytes{1, 2, 3}), mac_tag(k, Bytes{1, 2, 3, 0}));
}

TEST(Mac, KeySerializationRoundTrip) {
  Rng rng(7);
  const MacKey k = MacKey::random(rng);
  const auto k2 = MacKey::from_bytes(k.to_bytes());
  ASSERT_TRUE(k2.has_value());
  EXPECT_EQ(k2->a, k.a);
  EXPECT_EQ(k2->b, k.b);
}

TEST(Mac, FoldIsTheFieldSequenceSum) {
  // mac_fold (Horner, 8-byte chunk loads) against the definition
  // b + Σ a^i·m_i over bytes_to_field, at every length up to five chunks
  // and from an unaligned start.
  Rng rng(31);
  const Bytes buf = rng.bytes(41);
  for (std::size_t len = 0; len <= 40; ++len) {
    const MacKey k = MacKey::random(rng);
    const ByteView msg = ByteView(buf).subspan(1, len);
    Fp expect = k.b;
    Fp apow = k.a;
    for (const Fp m : bytes_to_field(msg)) {
      expect += apow * m;
      apow *= k.a;
    }
    EXPECT_EQ(mac_fold(k, msg), expect) << "len " << len;
    EXPECT_EQ(mac_tag(k, msg), fp_to_bytes(expect)) << "len " << len;
  }
}

TEST(Commitment, OpensCorrectly) {
  Rng rng(8);
  const Bytes msg = bytes_of("the contract");
  const Commitment c = commit(msg, rng);
  EXPECT_TRUE(commit_verify(c.com, msg, c.opening));
}

TEST(Commitment, BindingToMessage) {
  Rng rng(9);
  const Commitment c = commit(bytes_of("yes"), rng);
  EXPECT_FALSE(commit_verify(c.com, bytes_of("no"), c.opening));
}

TEST(Commitment, HidingDistinctRandomness) {
  Rng rng(10);
  const Bytes msg = bytes_of("m");
  EXPECT_NE(commit(msg, rng).com, commit(msg, rng).com);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  EXPECT_EQ(a.u64(), b.u64());
  EXPECT_EQ(a.bytes(16), b.bytes(16));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.u64(), b.u64());
}

TEST(Rng, ForkIndependence) {
  Rng root(77);
  Rng f1 = root.fork("parties");
  Rng f2 = root.fork("adversary");
  Rng f3 = root.fork("parties");  // same label, later counter: still distinct
  EXPECT_NE(f1.u64(), f2.u64());
  EXPECT_NE(f1.u64(), f3.u64());
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::array<int, 10> counts{};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    counts[v]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(100);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace fairsfe
