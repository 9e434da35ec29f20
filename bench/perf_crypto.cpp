// P01 — crypto substrate throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include "crypto/auth_share.h"
#include "crypto/chacha20.h"
#include "crypto/commitment.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/lamport.h"
#include "crypto/mac.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"

namespace fairsfe {
namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = bytes_of("key material");
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

// Arg = number of 32-byte messages; 512 is one Lamport key's preimages.
void BM_Sha256_32Batch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Bytes in = rng.bytes(32 * count);
  Bytes out(32 * count);
  for (auto _ : state) {
    crypto_kernels::sha256_32_batch(in.data(), out.data(), count);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256_32Batch)->Arg(16)->Arg(512);

// Arg = number of 45-byte messages, the size of an n-party GK share hash
// input for a 1-byte value, through Sha256Batch.
void BM_Sha256OneBlockBatch(benchmark::State& state) {
  constexpr std::size_t kLen = 45;
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Bytes in = rng.bytes(kLen * count);
  Bytes out(32 * count);
  for (auto _ : state) {
    Sha256Batch batch;
    for (std::size_t i = 0; i < count; ++i) {
      batch.add({in.data() + kLen * i, kLen}, out.data() + 32 * i);
    }
    batch.flush();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256OneBlockBatch)->Arg(16)->Arg(512);

void BM_ChaCha20Keystream(benchmark::State& state) {
  const Bytes key(32, 1);
  const Bytes nonce(12, 2);
  for (auto _ : state) {
    ChaCha20 c(key, nonce);
    benchmark::DoNotOptimize(c.keystream(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(64)->Arg(4096)->Arg(16384);

// One long-lived stream drawing 62-byte pieces, about what a GK dealer
// draws per sharing: past its first four blocks it refills 16 at a time.
void BM_ChaCha20ShortDraws(benchmark::State& state) {
  constexpr std::size_t kPiece = 62;
  const Bytes key(32, 1);
  const Bytes nonce(12, 2);
  ChaCha20 c(key, nonce);
  std::uint8_t out[kPiece];
  for (auto _ : state) {
    c.fill(out, kPiece);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPiece);
}
BENCHMARK(BM_ChaCha20ShortDraws);

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  Fp a = Fp::random(rng);
  const Fp b = Fp::random(rng);
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_OneTimeMac(benchmark::State& state) {
  Rng rng(2);
  const MacKey k = MacKey::random(rng);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac_tag(k, msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_OneTimeMac)->Arg(32)->Arg(1024);

void BM_Commitment(benchmark::State& state) {
  Rng rng(3);
  const Bytes msg(64, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(commit(msg, rng));
  }
}
BENCHMARK(BM_Commitment);

void BM_AuthShare2(benchmark::State& state) {
  Rng rng(4);
  const Bytes secret(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    Writer w1, w2;
    deal_auth_share2(secret, rng, w1, w2);
    benchmark::DoNotOptimize(w1.bytes().data());
    benchmark::DoNotOptimize(w2.bytes().data());
  }
}
BENCHMARK(BM_AuthShare2)->Arg(8)->Arg(256);

void BM_AuthReconstruct2(benchmark::State& state) {
  Rng rng(5);
  const Bytes secret(64, 0x44);
  Writer w1, w2;
  deal_auth_share2(secret, rng, w1, w2);
  // Each writer holds blob(share): the share follows its 4-byte length.
  const AuthShare2 share1 = *AuthShare2::from_bytes(ByteView(w1.bytes()).subspan(4));
  const Bytes opening = AuthShare2::from_bytes(ByteView(w2.bytes()).subspan(4))->opening_to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth_reconstruct2(share1, opening));
  }
}
BENCHMARK(BM_AuthReconstruct2);

void BM_ShamirShare(benchmark::State& state) {
  Rng rng(6);
  const Bytes secret(32, 0x55);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_share_bytes(secret, n / 2 + 1, n, rng));
  }
}
BENCHMARK(BM_ShamirShare)->Arg(4)->Arg(16)->Arg(64);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(7);
  const Bytes secret(32, 0x66);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shares = shamir_share_bytes(secret, n / 2 + 1, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct_bytes(shares, n / 2 + 1));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(4)->Arg(16);

void BM_LamportGen(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamport_gen(rng));
  }
}
BENCHMARK(BM_LamportGen);

void BM_LamportSignVerify(benchmark::State& state) {
  Rng rng(9);
  const LamportKeyPair kp = lamport_gen(rng);
  const Bytes msg = bytes_of("the output value");
  for (auto _ : state) {
    const Bytes sig = lamport_sign(kp.signing_key, msg);
    benchmark::DoNotOptimize(lamport_verify(kp.verification_key, msg, sig));
  }
}
BENCHMARK(BM_LamportSignVerify);

}  // namespace
}  // namespace fairsfe
