// The per-thread free lists behind Bytes' large blocks (bytes.h).
//
// Each pooled block is one plain operator new allocation of its class size
// plus a header in front of the bytes handed out: the id of the thread cache
// that made it and, while the block is parked, the free-list link. A block
// only ever returns to the cache that made it, so a cache holds nothing a
// different thread could still be using, and a cache needs no lock.
#include "crypto/bytes.h"

#if FAIRSFE_BYTES_POOL

#include <atomic>
#include <new>

namespace fairsfe::bytes_pool {

namespace {

constexpr std::size_t kClasses = kMaxBytes / kClassBytes;

/// Aligned as operator new aligns, so the bytes behind it are too.
struct alignas(__STDCPP_DEFAULT_NEW_ALIGNMENT__) BlockHeader {
  std::uint64_t owner = 0;  ///< id of the allocating cache; 0 if none
  BlockHeader* next = nullptr;
};

/// Trivially destructible, so it stays readable while other thread-local
/// destructors free Bytes; CacheReaper empties it at thread exit.
struct ThreadCache {
  std::array<BlockHeader*, kClasses> free{};
  std::size_t bytes = 0;
  std::uint64_t id = 0;  ///< 0 until first use, and again once reaped
  bool reaped = false;
};

constinit thread_local ThreadCache t_cache{};
std::atomic<std::uint64_t> g_next_id{1};

constexpr std::size_t class_of(std::size_t n) { return (n - 1) / kClassBytes; }
constexpr std::size_t class_size(std::size_t c) { return (c + 1) * kClassBytes; }

BlockHeader* header_of(void* p) { return static_cast<BlockHeader*>(p) - 1; }
void* bytes_of(BlockHeader* h) { return h + 1; }

void release(BlockHeader* h, std::size_t c) noexcept {
  ::operator delete(h, class_size(c) + sizeof(BlockHeader));
}

struct CacheReaper {
  CacheReaper() = default;
  CacheReaper(const CacheReaper&) = delete;
  CacheReaper& operator=(const CacheReaper&) = delete;
  ~CacheReaper() {
    ThreadCache& cache = t_cache;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (BlockHeader* h = cache.free[c]) {
        cache.free[c] = h->next;
        release(h, c);
      }
    }
    cache.bytes = 0;
    cache.id = 0;
    cache.reaped = true;
  }
};
thread_local CacheReaper t_reaper;

/// The calling thread's cache id, registering the cache on first use; 0
/// once the thread's cache has been reaped.
std::uint64_t cache_id() {
  ThreadCache& cache = t_cache;
  if (cache.id == 0 && !cache.reaped) {
    (void)&t_reaper;  // first odr-use registers the reaper's destructor
    cache.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  }
  return cache.id;
}

}  // namespace

void* allocate(std::size_t n) {
  const std::size_t c = class_of(n);
  ThreadCache& cache = t_cache;
  if (BlockHeader* h = cache.free[c]) {
    cache.free[c] = h->next;
    cache.bytes -= class_size(c);
    return bytes_of(h);
  }
  void* raw = ::operator new(class_size(c) + sizeof(BlockHeader));
  return bytes_of(new (raw) BlockHeader{cache_id(), nullptr});
}

void deallocate(void* p, std::size_t n) noexcept {
  const std::size_t c = class_of(n);
  BlockHeader* h = header_of(p);
  ThreadCache& cache = t_cache;
  if (h->owner != 0 && h->owner == cache.id && cache.bytes + class_size(c) <= kThreadBudget) {
    h->next = cache.free[c];
    cache.free[c] = h;
    cache.bytes += class_size(c);
    return;
  }
  release(h, c);
}

std::size_t cached_bytes() noexcept { return t_cache.bytes; }

}  // namespace fairsfe::bytes_pool

#else

namespace fairsfe::bytes_pool {

void* allocate(std::size_t n) { return ::operator new(n); }
void deallocate(void* p, std::size_t n) noexcept { ::operator delete(p, n); }
std::size_t cached_bytes() noexcept { return 0; }

}  // namespace fairsfe::bytes_pool

#endif
