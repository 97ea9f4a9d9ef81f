// Replaceable global allocation functions that count heap allocations
// while counting is switched on (the allocs_per_round metric), and
// delegate to malloc/free otherwise — the same hook bench_scale uses.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<long long> g_allocs{0};
std::atomic<bool> g_counting{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
long long alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
void alloc_reset() { g_allocs.store(0, std::memory_order_relaxed); }

}  // namespace perfbench
