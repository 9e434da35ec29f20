// Direct calls into the crypto and mpc layers, timed outside the workload
// loop after one warm-up repetition. Each probe reports the median per-call
// time over its repetitions and the number of calls it timed.
#include <array>
#include <span>

#include "crypto/chacha20.h"
#include "crypto/lamport.h"
#include "crypto/rng.h"
#include "crypto/sha256.h"
#include "experiments/registry.h"
#include "mpc/preproc/provider.h"
#include "mpc/preproc/store.h"
#include "modes.h"

namespace perfbench {

using fairsfe::Bytes;
using fairsfe::Rng;

namespace {

constexpr int kReps = 9;

/// Median seconds per call of `op` over kReps repetitions of `calls` calls,
/// after one untimed repetition.
template <typename Op>
double per_call_seconds(std::size_t calls, Op&& op) {
  std::vector<double> per_call;
  for (int rep = -1; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) op();
    if (rep >= 0) per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

void probe_line(Result& out, const char* name, double value, const char* unit,
                std::size_t calls) {
  out.line("  %-28s %12.3f %-3s  (%zu calls timed)", name, value, unit, calls * kReps);
}

}  // namespace

void run_crypto_probes(std::uint64_t seed, Result& out) {
  Rng rng = Rng(seed).fork("crypto-probe");
  out.line("crypto probes (median of %d repetitions):", kReps);

  // Lamport at the sizes Optn signs: one 40-byte output (n = 5 x 8 bytes).
  const Bytes msg = rng.bytes(40);
  constexpr std::size_t kGenCalls = 40;
  const double gen =
      per_call_seconds(kGenCalls, [&] { (void)fairsfe::lamport_gen(rng); }) * 1e6;
  out.metric("crypto.lamport_gen_us", gen, "us");
  probe_line(out, "lamport_gen", gen, "us", kGenCalls);

  const fairsfe::LamportKeyPair kp = fairsfe::lamport_gen(rng);
  const Bytes sig = fairsfe::lamport_sign(kp.signing_key, msg);
  bool all_ok = true;
  constexpr std::size_t kVerifyCalls = 80;
  const double verify = per_call_seconds(kVerifyCalls, [&] {
                          all_ok = fairsfe::lamport_verify(kp.verification_key, msg, sig) &&
                                   all_ok;
                        }) *
                        1e6;
  out.metric("crypto.lamport_verify_us", verify, "us");
  probe_line(out, "lamport_verify", verify, "us", kVerifyCalls);
  if (!all_ok) out.fail("lamport_verify rejected a valid signature");
  Bytes forged = sig;
  forged[0] ^= 1;
  if (fairsfe::lamport_verify(kp.verification_key, msg, forged)) {
    out.fail("lamport_verify accepted a tampered signature");
  }

  // SHA-256 of 32 bytes, each digest hashed again.
  Bytes h = rng.bytes(32);
  constexpr std::size_t kShaCalls = 20000;
  const double sha = per_call_seconds(kShaCalls, [&] { h = fairsfe::sha256(h); }) * 1e9;
  out.metric("crypto.sha256_32B_ns", sha, "ns");
  probe_line(out, "sha256 (32 B)", sha, "ns", kShaCalls);

  // ChaCha20 keystream of one Lamport key's worth of preimages.
  const Bytes key = rng.bytes(fairsfe::ChaCha20::kKeySize);
  const Bytes nonce = rng.bytes(fairsfe::ChaCha20::kNonceSize);
  fairsfe::ChaCha20 chacha(key, nonce);
  std::vector<std::uint8_t> buf(16 * 1024);
  constexpr std::size_t kChaChaCalls = 200;
  const double cc = per_call_seconds(kChaChaCalls, [&] { chacha.fill(buf); }) * 1e6;
  out.metric("crypto.chacha20_16KiB_us", cc, "us");
  probe_line(out, "chacha20 (16 KiB)", cc, "us", kChaChaCalls);

  // The estimator's per-run stream derivation.
  const Rng master(seed);
  std::uint64_t index = 0;
  constexpr std::size_t kForkCalls = 20000;
  const double fork =
      per_call_seconds(kForkCalls, [&] { (void)master.fork_at("run", index++).u64(); }) * 1e9;
  out.metric("crypto.rng_fork_at_ns", fork, "ns");
  probe_line(out, "rng fork_at + u64", fork, "ns", kForkCalls);
}

void run_mpc_probes(std::uint64_t seed, Result& out) {
  const auto& registry = fairsfe::experiments::Registry::instance();
  const auto* e20 = registry.find("exp20_bitslice");
  const auto* e19 = registry.find("exp19_preproc_split");
  if (e20 == nullptr || !e20->sliced || e19 == nullptr || !e19->preproc) {
    out.fail("exp19/exp20 are not registered with their sliced target and budget");
    return;
  }
  out.line("mpc probes (median of %d repetitions):", kReps);

  // One 64-lane batch of exp20's registered bit-sliced target.
  std::array<fairsfe::sim::ExecutionResult, 64> results;
  std::size_t lo = 0;
  const double sliced = per_call_seconds(1, [&] {
                          e20->sliced(lo, results.size(), seed, std::span(results));
                          lo += results.size();
                        }) *
                        1e6;
  out.metric("mpc.sliced_batch_us", sliced, "us");
  probe_line(out, "sliced batch (64 lanes)", sliced, "us", 1);
  for (const auto& r : results) {
    if (r.outputs.size() != e20->sliced_parties) {
      out.fail("sliced batch returned a result without every party's output");
      break;
    }
  }

  // The dealer's batch for exp19's registered budget at its default runs.
  fairsfe::mpc::preproc::PreprocRequest req;
  req.parties = e19->preproc->parties;
  req.triples = e19->default_runs * e19->preproc->triples_per_run;
  req.rots = e19->default_runs * e19->preproc->rots_per_run;
  Rng rng = Rng(seed).fork("offline-probe");
  std::size_t triples = 0;
  const double offline =
      per_call_seconds(1, [&] {
        const auto batch = fairsfe::mpc::preproc::generate_batch(
            fairsfe::mpc::preproc::PreprocMode::kOfflineIdeal, req, rng);
        triples = batch->num_triples();
      }) *
      1e3;
  out.metric("mpc.offline_batch_ms", offline, "ms");
  probe_line(out, "offline_ideal batch", offline, "ms", 1);
  out.line("  (offline batch: %zu parties, %zu triples)", req.parties, triples);
  if (triples < req.triples) out.fail("offline batch holds fewer triples than requested");
}

}  // namespace perfbench
