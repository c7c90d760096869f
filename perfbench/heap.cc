// Peak-heap accounting for peak_heap_mb: every global allocation function
// is replaced with a malloc-backed one that tracks the bytes currently live
// (malloc_usable_size of each block) and their high-water mark. The
// program's hot paths allocate nothing in steady state, so the two relaxed
// atomic updates per allocation do not show in the timings.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "report.h"

namespace {

std::atomic<std::size_t> gLive{0};
std::atomic<std::size_t> gPeak{0};

void noteAlloc(void* p) {
    if (!p) return;
    const std::size_t now =
        gLive.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
        malloc_usable_size(p);
    std::size_t peak = gPeak.load(std::memory_order_relaxed);
    while (now > peak &&
           !gPeak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
}

void release(void* p) {
    if (!p) return;
    gLive.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

void* allocate(std::size_t n, std::size_t align, bool nothrow) {
    if (n == 0) n = 1;
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else if (posix_memalign(&p, align, n) != 0) {
        p = nullptr;
    }
    if (!p && !nothrow) throw std::bad_alloc();
    noteAlloc(p);
    return p;
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

namespace perfbench {
std::size_t heapLiveBytes() { return gLive.load(std::memory_order_relaxed); }
std::size_t heapPeakBytes() { return gPeak.load(std::memory_order_relaxed); }
std::size_t heapResetPeak() {
    const std::size_t live = heapLiveBytes();
    gPeak.store(live, std::memory_order_relaxed);
    return live;
}
}  // namespace perfbench

void* operator new(std::size_t n) { return allocate(n, kPlain, false); }
void* operator new[](std::size_t n) { return allocate(n, kPlain, false); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return allocate(n, kPlain, true);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return allocate(n, kPlain, true);
}
void* operator new(std::size_t n, std::align_val_t a) {
    return allocate(n, static_cast<std::size_t>(a), false);
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return allocate(n, static_cast<std::size_t>(a), false);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return allocate(n, static_cast<std::size_t>(a), true);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return allocate(n, static_cast<std::size_t>(a), true);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    release(p);
}
