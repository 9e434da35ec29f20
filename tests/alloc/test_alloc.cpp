// Allocation ceilings for steady-state runs, and the Bytes pool behind them.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is its own executable: the counters see every allocation
// a run makes. After warm-up, a worker's runs must take no block of
// bytes_pool::kMinBytes or more from operator new (DESIGN.md §4, memory
// reuse); the small-allocation ceilings pin today's per-run counts so a
// change that adds allocations to a run shows here, and a change that
// removes some lowers them. Sanitizer builds compile the pool out and keep
// their own allocator, so every test here skips there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>

#include "crypto/bytes.h"
#include "crypto/rng.h"
#include "experiments/setups.h"
#include "fair/gk.h"
#include "rpd/estimator.h"

namespace {

/// Per-thread, so a test's worker threads and the harness never count
/// toward the thread under measurement.
struct AllocCounts {
  std::size_t small = 0;         ///< operator new calls below kMinBytes
  std::size_t large = 0;         ///< operator new calls of kMinBytes or more
  std::size_t large_deletes = 0;
};
thread_local AllocCounts t_counts;
/// Large deletes on every thread, for what happens during thread exit.
std::atomic<std::size_t> g_large_deletes{0};

}  // namespace

// Sanitizer builds keep their own operator new: nothing is counted there.
#if FAIRSFE_BYTES_POOL

namespace {

void count_new(std::size_t n) {
  if (n >= fairsfe::bytes_pool::kMinBytes) {
    ++t_counts.large;
  } else {
    ++t_counts.small;
  }
}

void count_delete(std::size_t n) {
  if (n >= fairsfe::bytes_pool::kMinBytes) {
    ++t_counts.large_deletes;
    ++g_large_deletes;
  }
}

}  // namespace

// Once GCC inlines a replacement delete into a caller, it sees free() of a
// pointer from operator new and warns, though this file pairs them itself.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  count_new(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t align) {
  count_new(n);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n) noexcept {
  count_delete(n);
  std::free(p);
}
void operator delete(void* p, std::align_val_t /*align*/) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n, std::align_val_t /*align*/) noexcept {
  count_delete(n);
  std::free(p);
}

#pragma GCC diagnostic pop

#endif

namespace fairsfe {
namespace {

#define SKIP_WITHOUT_POOL()                                                  \
  if (!bytes_pool::kEnabled) GTEST_SKIP() << "sanitizer build: no Bytes pool"

/// One run as the estimator makes it: setup from the run's "setup" stream,
/// then the engine on its "engine" stream.
void one_run(const rpd::SetupFactory& factory, std::uint64_t seed) {
  Rng rng(seed);
  Rng setup_rng = rng.fork("setup");
  rpd::RunSetup setup = factory(setup_rng);
  (void)rpd::execute(std::move(setup), rng.fork("engine"));
}

constexpr std::size_t kWarmupRuns = 8;
constexpr std::size_t kCountedRuns = 64;

/// operator new calls over kCountedRuns runs after kWarmupRuns warm-up runs.
AllocCounts steady_state_counts(const rpd::SetupFactory& factory) {
  std::uint64_t seed = 1000;
  for (std::size_t k = 0; k < kWarmupRuns; ++k) one_run(factory, seed++);
  const AllocCounts before = t_counts;
  for (std::size_t k = 0; k < kCountedRuns; ++k) one_run(factory, seed++);
  return {t_counts.small - before.small, t_counts.large - before.large,
          t_counts.large_deletes - before.large_deletes};
}

/// No large block at all, and at most `small_per_run` smaller allocations per
/// run on average. The small ceilings are the means measured when the Bytes
/// pool went in (215.8, 770.9 and 377.0).
void expect_ceilings(const rpd::SetupFactory& factory, std::size_t small_per_run) {
  const AllocCounts c = steady_state_counts(factory);
  EXPECT_EQ(c.large, 0u) << "blocks >= " << bytes_pool::kMinBytes << " B from operator new";
  EXPECT_LE(c.small, small_per_run * kCountedRuns)
      << "small allocations per run: " << static_cast<double>(c.small) / kCountedRuns;
}

TEST(AllocCeiling, OptnLockAbortN5) {
  SKIP_WITHOUT_POOL();
  expect_ceilings(experiments::optn_lock_abort(5, 4), 216);
}

TEST(AllocCeiling, GkAbortMidP4) {
  SKIP_WITHOUT_POOL();
  expect_ceilings(experiments::gk_attack(fair::make_gk_and_params(4),
                                         experiments::GkAttack::kAbortMid),
                  771);
}

TEST(AllocCeiling, HalfGmwCoalitionN4) {
  SKIP_WITHOUT_POOL();
  expect_ceilings(experiments::half_gmw_coalition(4, 2), 377);
}

/// A thread whose cache starts empty, for tests that count what it holds.
template <class F>
void on_fresh_thread(F body) {
  std::thread(body).join();
}

TEST(BytesPool, ReusesBlockWithinItsClass) {
  SKIP_WITHOUT_POOL();
  on_fresh_thread([] {
    const std::uint8_t* first = nullptr;
    {
      const Bytes a(5000);
      first = a.data();
    }
    EXPECT_EQ(bytes_pool::cached_bytes(), 8192u);
    const std::size_t large_before = t_counts.large;
    const Bytes b(8192);  // same 8 KiB class as 5000 bytes
    EXPECT_EQ(b.data(), first);
    EXPECT_EQ(t_counts.large, large_before);
    EXPECT_EQ(bytes_pool::cached_bytes(), 0u);
    const Bytes c(8193);  // the next class up: a new block
    EXPECT_NE(c.data(), first);
    EXPECT_EQ(t_counts.large, large_before + 1);
  });
}

TEST(BytesPool, ByteCapSpillsToDelete) {
  SKIP_WITHOUT_POOL();
  on_fresh_thread([] {
    constexpr std::size_t kBlock = 64 * 1024;
    constexpr std::size_t kFit = bytes_pool::kThreadBudget / kBlock;
    {
      std::vector<Bytes> blocks;
      for (std::size_t k = 0; k < kFit + 2; ++k) blocks.emplace_back(kBlock);
      const std::size_t deletes_before = t_counts.large_deletes;
      blocks.clear();
      EXPECT_EQ(t_counts.large_deletes, deletes_before + 2);
    }
    EXPECT_EQ(bytes_pool::cached_bytes(), kFit * kBlock);
  });
}

TEST(BytesPool, SmallAndHugeBlocksBypassThePool) {
  SKIP_WITHOUT_POOL();
  on_fresh_thread([] {
    { const Bytes small(bytes_pool::kMinBytes - 1); }
    { const Bytes huge(bytes_pool::kMaxBytes + 1); }
    EXPECT_EQ(bytes_pool::cached_bytes(), 0u);
  });
}

TEST(BytesPool, BlockFreedOnAnotherThreadIsDeleted) {
  SKIP_WITHOUT_POOL();
  Bytes made_here(10000, 0xab);
  on_fresh_thread([moved = std::move(made_here)]() mutable {
    const std::size_t deletes_before = t_counts.large_deletes;
    EXPECT_EQ(moved[9999], 0xab);
    Bytes().swap(moved);
    EXPECT_EQ(t_counts.large_deletes, deletes_before + 1);
    EXPECT_EQ(bytes_pool::cached_bytes(), 0u);
  });
}

TEST(BytesPool, FreeAfterThreadExitIsSafe) {
  SKIP_WITHOUT_POOL();
  // A block that outlives the thread that made it goes to delete on the
  // thread that frees it, not into that thread's cache.
  Bytes survivor;
  std::thread([&survivor] { survivor = Bytes(20000, 0xcd); }).join();
  const std::size_t cached_before = bytes_pool::cached_bytes();
  EXPECT_EQ(survivor[19999], 0xcd);
  Bytes().swap(survivor);
  EXPECT_EQ(bytes_pool::cached_bytes(), cached_before);

  // A thread_local destroyed after the thread's cache is reaped frees into
  // no cache. The holder exists before the first pooled block, so thread
  // exit destroys it after the cache: both its block and the one parked in
  // the cache must reach delete.
  const std::size_t deletes_before = g_large_deletes.load();
  std::thread([] {
    thread_local std::optional<Bytes> holder;
    holder.emplace();
    holder->resize(30000);
    { const Bytes parked(12000); }
    EXPECT_EQ(bytes_pool::cached_bytes(), 12288u);
  }).join();
  EXPECT_EQ(g_large_deletes.load(), deletes_before + 2);
}

}  // namespace
}  // namespace fairsfe
