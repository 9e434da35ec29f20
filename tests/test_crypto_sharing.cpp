// Tests for XOR/additive sharing, Shamir, authenticated 2-of-2 sharing, and
// Lamport signatures.
#include <gtest/gtest.h>

#include <algorithm>

#include "auth_share_util.h"
#include "crypto/auth_share.h"
#include "crypto/lamport.h"
#include "crypto/rng.h"
#include "crypto/secret_sharing.h"
#include "crypto/shamir.h"
#include "crypto/sha256.h"

namespace fairsfe {
namespace {

// xor_share into n fresh buffers, and xor_reconstruct over them.
std::vector<Bytes> xor_share_n(ByteView secret, std::size_t n, Rng& rng) {
  std::vector<Bytes> shares(n, Bytes(secret.size()));
  const std::vector<std::span<std::uint8_t>> out(shares.begin(), shares.end());
  xor_share(secret, out, rng);
  return shares;
}
Bytes xor_reconstruct_n(const std::vector<Bytes>& shares) {
  const std::vector<ByteView> in(shares.begin(), shares.end());
  return xor_reconstruct(in);
}

TEST(XorSharing, RoundTrip) {
  Rng rng(1);
  const Bytes secret = bytes_of("top secret payload");
  for (std::size_t n : {1u, 2u, 3u, 7u}) {
    const auto shares = xor_share_n(secret, n, rng);
    ASSERT_EQ(shares.size(), n);
    EXPECT_EQ(xor_reconstruct_n(shares), secret);
  }
}

TEST(XorSharing, SingleShareIsSecret) {
  Rng rng(2);
  const Bytes secret = bytes_of("x");
  EXPECT_EQ(xor_share_n(secret, 1, rng)[0], secret);
}

TEST(XorSharing, SharesLookIndependentOfSecret) {
  // First share of a 2-sharing is pure randomness: over many trials its first
  // byte should take many values even for a fixed secret.
  Rng rng(3);
  const Bytes secret = {0x00};
  std::set<std::uint8_t> seen;
  for (int i = 0; i < 256; ++i) seen.insert(xor_share_n(secret, 2, rng)[0][0]);
  EXPECT_GT(seen.size(), 100u);
}

TEST(AdditiveSharing, RoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const Fp secret = Fp::random(rng);
    const auto shares = additive_share(secret, 5, rng);
    EXPECT_EQ(additive_reconstruct(shares), secret);
  }
}

class ShamirParamTest : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ShamirParamTest, ReconstructsFromAnyThresholdSubset) {
  const auto [threshold, n] = GetParam();
  Rng rng(5);
  const Bytes secret = bytes_of("shamir secret value");
  const auto shares = shamir_share_bytes(secret, threshold, n, rng);
  ASSERT_EQ(shares.size(), n);

  // Exactly-threshold prefix.
  std::vector<ShamirShare> subset(shares.begin(),
                                  shares.begin() + static_cast<std::ptrdiff_t>(threshold));
  EXPECT_EQ(shamir_reconstruct_bytes(subset, threshold), secret);

  // Exactly-threshold suffix (different subset).
  std::vector<ShamirShare> suffix(shares.end() - static_cast<std::ptrdiff_t>(threshold),
                                  shares.end());
  EXPECT_EQ(shamir_reconstruct_bytes(suffix, threshold), secret);

  // All shares.
  EXPECT_EQ(shamir_reconstruct_bytes(shares, threshold), secret);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdSweep, ShamirParamTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 3},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 5},
                      std::pair<std::size_t, std::size_t>{4, 7},
                      std::pair<std::size_t, std::size_t>{5, 5},
                      std::pair<std::size_t, std::size_t>{6, 11}));

TEST(Shamir, TooFewSharesFail) {
  Rng rng(6);
  const auto shares = shamir_share_bytes(bytes_of("s"), 3, 5, rng);
  std::vector<ShamirShare> two(shares.begin(), shares.begin() + 2);
  EXPECT_EQ(shamir_reconstruct_bytes(two, 3), std::nullopt);
}

TEST(Shamir, BelowThresholdLeaksNothing) {
  // For threshold 2, a single share's first limb evaluation is uniform:
  // shares of two different secrets are identically distributed. Check that
  // single-share values vary over trials for a fixed secret.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    Rng rng(static_cast<std::uint64_t>(1000 + i));
    const auto shares = shamir_share(std::vector<Fp>{Fp(42)}, 2, 2, rng);
    seen.insert(shares[0].y[0].value());
  }
  EXPECT_GT(seen.size(), 32u);
}

TEST(Shamir, DuplicatePointsRejected) {
  Rng rng(7);
  auto shares = shamir_share(std::vector<Fp>{Fp(1)}, 2, 3, rng);
  shares[1].x = shares[0].x;  // duplicate evaluation point
  std::vector<ShamirShare> two(shares.begin(), shares.begin() + 2);
  EXPECT_EQ(shamir_reconstruct(two, 2), std::nullopt);
}

TEST(Shamir, ShareSerializationRoundTrip) {
  Rng rng(8);
  const auto shares = shamir_share_bytes(bytes_of("abc"), 2, 3, rng);
  const auto back = ShamirShare::from_bytes(shares[1].to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->x, shares[1].x);
  ASSERT_EQ(back->y.size(), shares[1].y.size());
  for (std::size_t i = 0; i < back->y.size(); ++i) EXPECT_EQ(back->y[i], shares[1].y[i]);
}

TEST(AuthShare, ReconstructBothDirections) {
  Rng rng(9);
  const Bytes secret = bytes_of("the signed contract");
  const AuthSharing2 sh = deal_shares(secret, rng);
  EXPECT_EQ(auth_reconstruct2(sh.share1, sh.share2.opening_to_bytes()), secret);
  EXPECT_EQ(auth_reconstruct2(sh.share2, sh.share1.opening_to_bytes()), secret);
}

TEST(AuthShare, TamperedSummandDetected) {
  Rng rng(10);
  const AuthSharing2 sh = deal_shares(bytes_of("secret"), rng);
  AuthShare2 evil = sh.share2;
  evil.summand[0] ^= 1;
  EXPECT_EQ(auth_reconstruct2(sh.share1, evil.opening_to_bytes()), std::nullopt);
}

TEST(AuthShare, TamperedTagDetected) {
  Rng rng(11);
  const AuthSharing2 sh = deal_shares(bytes_of("secret"), rng);
  AuthShare2 evil = sh.share2;
  evil.summand_tag[0] ^= 1;
  EXPECT_EQ(auth_reconstruct2(sh.share1, evil.opening_to_bytes()), std::nullopt);
}

TEST(AuthShare, GarbageOpeningRejected) {
  Rng rng(12);
  const AuthSharing2 sh = deal_shares(bytes_of("secret"), rng);
  EXPECT_EQ(auth_reconstruct2(sh.share1, bytes_of("garbage")), std::nullopt);
  EXPECT_EQ(auth_reconstruct2(sh.share1, Bytes{}), std::nullopt);
}

TEST(AuthShare, SingleShareHidesSecret) {
  // The summand of share1 for two different secrets is identically
  // distributed; sanity-check variability for a fixed secret.
  std::set<std::string> seen;
  for (int i = 0; i < 32; ++i) {
    Rng rng(static_cast<std::uint64_t>(2000 + i));
    seen.insert(to_hex(deal_shares(bytes_of("fixed"), rng).share1.summand));
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(AuthShare, ShareSerializationRoundTrip) {
  Rng rng(13);
  const AuthSharing2 sh = deal_shares(bytes_of("s"), rng);
  const auto back = AuthShare2::from_bytes(sh.share1.to_bytes());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->summand, sh.share1.summand);
  EXPECT_EQ(back->summand_tag, sh.share1.summand_tag);
  EXPECT_EQ(auth_reconstruct2(*back, sh.share2.opening_to_bytes()), bytes_of("s"));
}

// The dealer before it wrote records in place: payload through a Writer, the
// tags as fp_to_bytes round trips, s₁ from rng.bytes, s₂ from xor_bytes.
AuthSharing2 share_field_by_field(ByteView secret, Rng& rng) {
  AuthSharing2 out;
  out.share1.key = MacKey::random(rng);
  out.share2.key = MacKey::random(rng);
  Writer pw;
  pw.blob(secret).blob(mac_tag(out.share1.key, secret)).blob(mac_tag(out.share2.key, secret));
  const Bytes payload = pw.take();
  out.share1.summand = rng.bytes(payload.size());
  out.share2.summand = xor_bytes(payload, out.share1.summand);
  out.share1.summand_tag = mac_tag(out.share2.key, out.share1.summand);
  out.share2.summand_tag = mac_tag(out.share1.key, out.share2.summand);
  return out;
}

TEST(AuthShare, DealInPlaceMatchesShareThenWrite) {
  // Secret lengths run past the 100-byte stack payload into the heap path;
  // the writers already hold bytes, as a dealt body does after its header.
  for (std::size_t len = 0; len <= 300; ++len) {
    Rng seed_rng(4000 + len);
    const Bytes secret = seed_rng.bytes(len);
    Rng in_place(len), reference(len);
    Writer w1, w2;
    w1.u32(7);
    w2.u8(9);
    deal_auth_share2(secret, in_place, w1, w2);

    const AuthSharing2 ref = share_field_by_field(secret, reference);
    Writer r1, r2;
    r1.u32(7);
    r2.u8(9);
    r1.blob(ref.share1.to_bytes());
    r2.blob(ref.share2.to_bytes());
    EXPECT_EQ(w1.bytes(), r1.bytes()) << "len " << len;
    EXPECT_EQ(w2.bytes(), r2.bytes()) << "len " << len;
    ASSERT_EQ(w1.bytes().size(), 4 + AuthShare2::blob_size(len));

    EXPECT_EQ(reference.u64(), in_place.u64()) << "len " << len;
    EXPECT_EQ(auth_reconstruct2(ref.share1, ref.share2.opening_to_bytes()), secret);
  }
}

TEST(Lamport, SignVerify) {
  Rng rng(14);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("output value y");
  const Bytes sig = lamport_sign(kp.signing_key, msg);
  EXPECT_TRUE(lamport_verify(kp.verification_key, msg, sig));
}

TEST(Lamport, RejectsOtherMessage) {
  Rng rng(15);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes sig = lamport_sign(kp.signing_key, bytes_of("m1"));
  EXPECT_FALSE(lamport_verify(kp.verification_key, bytes_of("m2"), sig));
}

TEST(Lamport, RejectsTamperedSignature) {
  Rng rng(16);
  const LamportKeyPair kp = lamport_gen(rng);
  Bytes sig = lamport_sign(kp.signing_key, bytes_of("m"));
  sig[100] ^= 1;
  EXPECT_FALSE(lamport_verify(kp.verification_key, bytes_of("m"), sig));
}

TEST(Lamport, RejectsWrongKeyAndMalformed) {
  Rng rng(17);
  const LamportKeyPair a = lamport_gen(rng);
  const LamportKeyPair b = lamport_gen(rng);
  const Bytes msg = bytes_of("m");
  EXPECT_FALSE(lamport_verify(b.verification_key, msg, lamport_sign(a.signing_key, msg)));
  EXPECT_FALSE(lamport_verify(a.verification_key, msg, bytes_of("short")));
  EXPECT_FALSE(lamport_verify(bytes_of("short"), msg, lamport_sign(a.signing_key, msg)));
}

TEST(Lamport, SignRejectsMalformedKey) {
  // A key of the wrong size is a programmer error, not an input: signing
  // would read preimages past its end.
  const Bytes msg = bytes_of("m");
  EXPECT_DEATH(lamport_sign(bytes_of("short"), msg), "signing key");
  Rng rng(18);
  Bytes longer = lamport_gen(rng).signing_key;
  longer.push_back(0);
  EXPECT_DEATH(lamport_sign(longer, msg), "signing key");
}

TEST(Lamport, RejectsFlipInAnyVerifyGroup) {
  // Verification hashes the signature sixteen chunks at a time; a flipped
  // byte at either edge of a group, and in the last chunk, must be caught.
  Rng rng(19);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("output value y");
  const Bytes sig = lamport_sign(kp.signing_key, msg);
  ASSERT_TRUE(lamport_verify(kp.verification_key, msg, sig));
  for (const std::size_t chunk : {0u, 15u, 16u, 31u, 255u}) {
    for (const std::size_t byte : {0u, 31u}) {
      Bytes bad = sig;
      bad[32 * chunk + byte] ^= 0x80;
      EXPECT_FALSE(lamport_verify(kp.verification_key, msg, bad))
          << "chunk " << chunk << " byte " << byte;
    }
  }
}

TEST(Lamport, RejectsOneByteForgeryInChunk) {
  // Verification folds every digest/vk comparison into one accumulator and
  // decides once at the end; a difference in a single compared byte, in any
  // 8-byte word of a chunk, at either edge of a 16-chunk group, must still
  // reject. A byte of the half the message does not select is never read.
  Rng rng(21);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("output value y");
  const Bytes sig = lamport_sign(kp.signing_key, msg);
  const Bytes digest = sha256(msg);
  ASSERT_TRUE(lamport_verify(kp.verification_key, msg, sig));
  for (const std::size_t chunk : {0u, 15u, 16u, 255u}) {
    const std::size_t bit = (digest[chunk / 8] >> (chunk % 8)) & 1;
    const std::size_t selected = 2 * chunk + bit;
    const std::size_t other = 2 * chunk + (1 - bit);
    for (const std::size_t byte : {0u, 7u, 8u, 31u}) {
      Bytes vk = kp.verification_key;
      vk[32 * selected + byte] ^= 0x01;
      EXPECT_FALSE(lamport_verify(vk, msg, sig)) << "chunk " << chunk << " byte " << byte;
      vk = kp.verification_key;
      vk[32 * other + byte] ^= 0x01;
      EXPECT_TRUE(lamport_verify(vk, msg, sig)) << "chunk " << chunk << " byte " << byte;
    }
    Bytes forged = sig;
    forged[32 * chunk + 13] ^= 0x01;
    EXPECT_FALSE(lamport_verify(kp.verification_key, msg, forged)) << "chunk " << chunk;
    // The other preimage of the same chunk: a valid preimage, for the wrong bit.
    forged = sig;
    std::copy_n(kp.signing_key.begin() + static_cast<std::ptrdiff_t>(32 * other), 32,
                forged.begin() + static_cast<std::ptrdiff_t>(32 * chunk));
    EXPECT_FALSE(lamport_verify(kp.verification_key, msg, forged)) << "chunk " << chunk;
  }
}

TEST(Lamport, VerifiesSignatureAtUnalignedOffset) {
  Rng rng(20);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("output value y");
  const Bytes sig = lamport_sign(kp.signing_key, msg);
  Bytes buffer(1);
  buffer.insert(buffer.end(), sig.begin(), sig.end());
  buffer.push_back(0);
  EXPECT_TRUE(lamport_verify(kp.verification_key, msg, ByteView(buffer).subspan(1, sig.size())));
}

}  // namespace
}  // namespace fairsfe
