// Global heap-allocation counter behind the benches' zero-allocation
// self-checks. Replacing `operator new` swaps the allocator for the whole
// binary, so every heap allocation funnels through `g_heap_allocations`.
// Include from exactly one translation unit of a bench binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

static std::atomic<std::uint64_t> g_heap_allocations{0};

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
