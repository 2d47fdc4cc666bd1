#include "common/alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

// Counting replacement for the global allocation functions. Kept deliberately
// boring: forward to malloc/free (so sanitizer interceptors still see every
// allocation) and bump counters. No locks, no heap use of our own.
//
// The thread-local counters are plain integers: they are only read by the
// owning thread, so the hot path is a single increment. The global total is
// relaxed-atomic — it is reporting-only and never used for synchronization.

namespace ips {
namespace {

thread_local std::uint64_t tls_alloc_count = 0;
std::atomic<std::uint64_t> g_alloc_count{0};

inline void* CountedAlloc(std::size_t size) {
  // malloc(0) may return nullptr legally; operator new must not.
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) return nullptr;
  ++tls_alloc_count;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (size == 0) size = align;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0) {
    return nullptr;
  }
  ++tls_alloc_count;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}

}  // namespace

std::uint64_t ThreadAllocCount() { return tls_alloc_count; }
std::uint64_t GlobalAllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
bool AllocHookInstalled() { return true; }

}  // namespace ips

void* operator new(std::size_t size) {
  void* p = ips::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = ips::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ips::CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ips::CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = ips::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = ips::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ips::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ips::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
