// Internal SIMD kernels behind ChaCha20, SHA-256, HMAC and Lamport.
//
// Not part of the library surface: the public types (ChaCha20, Sha256,
// HmacSha256, lamport_*) share these kernels inside src/crypto and dispatch
// by cpuid alone, and every kernel produces exactly the bytes of its scalar
// reference. The widest kernel the CPU runs goes first: ChaCha20 batches
// take 16 blocks (AVX-512), then 8 (AVX2), then 4 (SSE2); sha256_32_batch
// takes 16 messages at a time (AVX-512), then pairs and a single one on
// SHA-NI, or the portable loop; Sha256Batch hashes sixteen one-block
// messages at a time on AVX-512 and each one on its own otherwise. Tests
// include the header to run each kernel against that reference directly,
// including kernels the dispatcher would not pick on the host. There is no runtime switch: a CPU without a kernel's
// instructions never calls it, and its tests skip.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/bytes.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define FAIRSFE_X86_KERNELS 1
#endif

namespace fairsfe::crypto_kernels {

// ------------------------------------------------------------------ ChaCha20

/// One RFC 8439 block of `state` (16 words, counter in word 12) into
/// out[0..64). The scalar reference every batch kernel is tested against.
void chacha20_block_scalar(const std::uint32_t* state, std::uint8_t* out);

#ifdef FAIRSFE_X86_KERNELS
/// Blocks with counters state[12] + i (mod 2^32), i = 0..3 (SSE2), 0..7
/// (AVX2) or 0..15 (AVX-512), written to out[64 i .. 64 i + 64) — or XORed
/// into it when `xor_out` is set. `state` is not advanced; `out` needs no
/// alignment.
void chacha20_blocks4_sse2(const std::uint32_t* state, std::uint8_t* out, bool xor_out);
void chacha20_blocks8_avx2(const std::uint32_t* state, std::uint8_t* out, bool xor_out);
void chacha20_blocks16_avx512(const std::uint32_t* state, std::uint8_t* out, bool xor_out);
#endif

/// True when the CPU runs chacha20_blocks8_avx2 (cpuid, probed once).
bool cpu_has_avx2();
/// True when the CPU (and OS) run the AVX-512F/BW kernels (cpuid, probed
/// once).
bool cpu_has_avx512();

// ------------------------------------------------------------------- SHA-256

/// The FIPS 180-4 initial hash value.
inline constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                                               0x1f83d9ab, 0x5be0cd19};

/// One compression of a 64-byte block into `state` with the portable loop —
/// the behavioural reference, and the fallback without SHA-NI.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* block);

#ifdef FAIRSFE_X86_KERNELS
/// The same compression with the SHA extension. Requires cpu_has_sha_ni().
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* block);
#endif

/// True when the CPU runs the SHA-NI kernels (cpuid, probed once).
bool cpu_has_sha_ni();

/// Largest tail that finishes in one padded block: 0x80 and the 8-byte
/// length must fit behind it.
constexpr std::size_t kSha256MaxSingleBlockTail = 55;

/// Finish a hash whose first `prefix_len` bytes (a multiple of 64) are
/// already compressed into `midstate`, and whose remaining `tail` is at most
/// kSha256MaxSingleBlockTail bytes: one stack-padded block, one compression,
/// the 32-byte digest into `out`. With (kSha256Iv, 0) this is sha256(tail).
void sha256_finish_single_block(const std::uint32_t* midstate, std::uint64_t prefix_len,
                                ByteView tail, std::uint8_t* out);

/// SHA-256 of the 32 bytes at `in` into out[0..32).
void sha256_32(const std::uint8_t* in, std::uint8_t* out);

/// SHA-256 of each of the `count` contiguous 32-byte messages at `in` into
/// the contiguous 32-byte digests at `out` (in[32 i..] -> out[32 i..]).
/// Whole groups of 16 take sha256_32x16_avx512; the rest go two at a time
/// through SHA-NI, or through the portable loop. `in` and `out` need no
/// alignment and must not overlap.
void sha256_32_batch(const std::uint8_t* in, std::uint8_t* out, std::size_t count);

#ifdef FAIRSFE_X86_KERNELS
/// Sixteen 32-byte messages at in[0..512) hashed lane-parallel, digests to
/// out[0..512). Requires cpu_has_avx512().
void sha256_32x16_avx512(const std::uint8_t* in, std::uint8_t* out);
/// Sixteen final blocks, already padded, at blocks[0..1024) (block i at
/// 64 i) each compressed from the IV lane-parallel, digest i to
/// out[32 i .. 32 i + 32): the SHA-256 of sixteen one-block messages.
/// Requires cpu_has_avx512().
void sha256_blocks16_avx512(const std::uint8_t* blocks, std::uint8_t* out);
#endif

}  // namespace fairsfe::crypto_kernels
