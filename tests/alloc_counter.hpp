// A counting replacement of the global operator new, for the tests that
// pin allocation counts.  It replaces the global allocation functions, so
// a test binary includes it from exactly one source file.  The counter is
// global and relaxed-atomic: count_allocations counts the allocations of
// every thread while `fn` runs, pool workers included.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace alloc_counter {
inline std::atomic<long long> g_allocs{0};
inline std::atomic<bool> g_counting{false};
}  // namespace alloc_counter

// GCC flags free() on memory from operator new once these replacements
// are inlined into a new/delete pair, but here they are that pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (alloc_counter::g_counting.load(std::memory_order_relaxed)) {
    alloc_counter::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Heap allocations made, on any thread, while `fn` runs.
template <class Fn>
long long count_allocations(Fn&& fn) {
  alloc_counter::g_allocs.store(0, std::memory_order_relaxed);
  alloc_counter::g_counting.store(true, std::memory_order_relaxed);
  fn();
  alloc_counter::g_counting.store(false, std::memory_order_relaxed);
  return alloc_counter::g_allocs.load(std::memory_order_relaxed);
}
