#include "alloc_count.h"

#include <pthread.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

// 0 = not yet known (a new thread runs under its creator's name until it
// names itself), 1 = a runtime thread, 2 = a thread never counted.
thread_local int t_kind = 0;

bool OnRuntimeThread() {
  if (t_kind == 0) {
    char name[16] = {0};
    pthread_getname_np(pthread_self(), name, sizeof(name));
    if (std::strncmp(name, "flick-", 6) == 0) {
      t_kind = 1;
    } else if (std::strncmp(name, "lb-", 3) == 0) {
      t_kind = 2;
    }
  }
  return t_kind == 1;
}

void Count(std::size_t size) {
  if (g_enabled.load(std::memory_order_relaxed) && OnRuntimeThread()) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

}  // namespace

void ExcludeThisThread() { t_kind = 2; }

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Counts Read() {
  return Counts{g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
  perfbench::alloc::Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::alloc::Count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
