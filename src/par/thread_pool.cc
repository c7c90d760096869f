#include "par/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logspace.h"

namespace mpcgs {

unsigned hardwareThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1u : n;
}

namespace {

/// Pool whose launch the current thread is executing (nullptr outside any
/// launch). Lets the launch entry points detect nesting and degrade to a
/// serial inline loop instead of corrupting the in-flight launch slot.
thread_local const ThreadPool* tlActivePool = nullptr;

struct ScopedActive {
    const ThreadPool* prev;
    explicit ScopedActive(const ThreadPool* p) : prev(tlActivePool) { tlActivePool = p; }
    ~ScopedActive() { tlActivePool = prev; }
};

inline std::uint64_t packRange(std::uint64_t begin, std::uint64_t end) {
    return (begin << 32) | end;
}
inline std::uint32_t rangeBegin(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
}
inline std::uint32_t rangeEnd(std::uint64_t r) { return static_cast<std::uint32_t>(r); }

/// Scoped launch instrumentation: one pool.launches count per launch and,
/// when the metrics registry is armed, a launch-latency observation on
/// scope exit — covering the single-chunk early return and the full
/// dispatch+wait path alike. The clock is only read while armed.
struct LaunchObserver {
    bool on;
    std::chrono::steady_clock::time_point t0;
    obs::TraceSpan span{"pool_launch", "pool"};
    LaunchObserver() : on(obs::armed()) {
        if (on) {
            obs::add(obs::Counter::PoolLaunches);
            t0 = std::chrono::steady_clock::now();
        }
    }
    ~LaunchObserver() {
        if (on)
            obs::observe(obs::Histogram::PoolLaunchLatencyUs,
                         static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count()));
    }
};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

}  // namespace

bool ThreadPool::insideLaunch() const { return tlActivePool == this; }

ThreadPool::ThreadPool(unsigned nThreads)
    : width_(nThreads == 0 ? 1u : nThreads), spans_(width_) {
    const unsigned hw = hardwareThreads();
    oversubscribed_ = width_ > hw;
    wakeCap_ = hw > 1 ? hw - 1 : 0;
    workers_.reserve(width_ - 1);
    for (unsigned s = 1; s < width_; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

ThreadPool::~ThreadPool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
        // Empty critical section: a worker past its predicate check but not
        // yet asleep re-checks after we hold the lock, so the notify below
        // cannot be lost.
        std::lock_guard<std::mutex> g(wakeMu_);
    }
    wakeCv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::launch(std::size_t n, std::size_t grain, ChunkFn fn, void* ctx) {
    std::lock_guard<std::mutex> launchGuard(launchMu_);
    const LaunchObserver observer;
    if (grain == 0) {
        // Aim for ~4 chunks per slot: slack for stealing to balance uneven
        // work without per-chunk dispatch dominating small grids.
        const std::size_t target = static_cast<std::size_t>(width_) * 4;
        grain = (n + target - 1) / target;
        if (grain == 0) grain = 1;
    }
    // Chunk ids are packed into 32-bit halves of the steal words.
    while ((n + grain - 1) / grain > 0xffffffffull) grain *= 2;
    const std::size_t chunks = (n + grain - 1) / grain;

    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    grain_ = grain;

    if (chunks == 1) {
        ScopedActive active(this);
        fn(ctx, 0, n);
        return;
    }

    abort_.store(false, std::memory_order_relaxed);
    chunksLeft_.store(chunks, std::memory_order_relaxed);
    callerParked_.store(false, std::memory_order_relaxed);

    // Deal chunk ids into one contiguous span per slot. The partition is a
    // pure function of (chunks, width); execution assignment may then move
    // via stealing, so callers needing bitwise thread invariance index
    // their outputs by chunk, never by thread. The release stores publish
    // fn_/ctx_/n_/grain_ to whichever thread later pops from a span.
    for (unsigned s = 0; s < width_; ++s) {
        const std::uint64_t b = static_cast<std::uint64_t>(chunks) * s / width_;
        const std::uint64_t e = static_cast<std::uint64_t>(chunks) * (s + 1) / width_;
        spans_[s].range.store(packRange(b, e), std::memory_order_release);
    }
    epoch_.fetch_add(1, std::memory_order_seq_cst);

    // Wake at most wakeCap_ parked workers (and never more than there are
    // chunks to share). On an oversubscribed pool wakeCap_ < width-1, so
    // surplus workers stay parked and cost nothing; spinning workers
    // self-serve off the epoch word without a wake.
    const unsigned wake =
        static_cast<unsigned>(std::min<std::size_t>(chunks - 1, wakeCap_));
    if (wake > 0 && parked_.load(std::memory_order_seq_cst) > 0) {
        std::lock_guard<std::mutex> g(wakeMu_);
        const int parked = parked_.load(std::memory_order_seq_cst);
        if (parked > 0 && wake >= static_cast<unsigned>(parked)) {
            wakeCv_.notify_all();
            obs::add(obs::Counter::PoolWakes, static_cast<std::uint64_t>(parked));
        } else {
            for (unsigned i = 0; i < wake; ++i) wakeCv_.notify_one();
            obs::add(obs::Counter::PoolWakes, wake);
        }
    }

    {
        ScopedActive active(this);
        runChunks(0);
    }

    // All chunks are popped; wait for stragglers still executing theirs.
    if (chunksLeft_.load(std::memory_order_seq_cst) != 0) {
        std::unique_lock<std::mutex> lk(doneMu_);
        callerParked_.store(true, std::memory_order_seq_cst);
        doneCv_.wait(lk,
                     [&] { return chunksLeft_.load(std::memory_order_seq_cst) == 0; });
        callerParked_.store(false, std::memory_order_relaxed);
    }

    if (error_) {
        std::exception_ptr e;
        std::swap(e, error_);
        std::rethrow_exception(e);
    }
}

void ThreadPool::workerLoop(unsigned slot) {
    std::uint64_t seen = 0;  // pool construction precedes the first launch
    for (;;) {
        if (stop_.load(std::memory_order_relaxed)) return;
        const std::uint64_t cur = epoch_.load(std::memory_order_seq_cst);
        if (cur != seen) {
            seen = cur;
            ScopedActive active(this);
            runChunks(slot);
            continue;
        }
        if (!oversubscribed_) {
            bool woke = false;
            for (int spin = 0; spin < 4096; ++spin) {
                cpuRelax();
                if (epoch_.load(std::memory_order_seq_cst) != seen ||
                    stop_.load(std::memory_order_relaxed)) {
                    woke = true;
                    break;
                }
            }
            if (woke) continue;
        }
        obs::add(obs::Counter::PoolParks);
        std::unique_lock<std::mutex> lk(wakeMu_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        wakeCv_.wait(lk, [&] {
            return epoch_.load(std::memory_order_seq_cst) != seen ||
                   stop_.load(std::memory_order_relaxed);
        });
        parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
}

void ThreadPool::runChunks(unsigned slot) {
    std::size_t chunk;
    for (;;) {
        if (popOwn(slot, chunk)) {
            executeChunk(chunk);
            continue;
        }
        if (stealChunk(slot, chunk)) {
            executeChunk(chunk);
            continue;
        }
        return;
    }
}

bool ThreadPool::popOwn(unsigned slot, std::size_t& chunk) {
    auto& own = spans_[slot].range;
    std::uint64_t r = own.load(std::memory_order_acquire);
    for (;;) {
        const std::uint32_t b = rangeBegin(r);
        const std::uint32_t e = rangeEnd(r);
        if (b >= e) return false;
        if (own.compare_exchange_weak(r, packRange(b + 1ull, e),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
            chunk = b;
            return true;
        }
    }
}

bool ThreadPool::stealChunk(unsigned slot, std::size_t& chunk) {
    for (unsigned off = 1; off < width_; ++off) {
        const unsigned v = (slot + off) % width_;
        auto& victim = spans_[v].range;
        std::uint64_t r = victim.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t b = rangeBegin(r);
            const std::uint32_t e = rangeEnd(r);
            if (b >= e) break;
            // Take one chunk off the back; the victim keeps popping the
            // front. A thief must never WRITE its own span: a stale worker
            // still scanning after its launch drained could otherwise
            // clobber chunks the next launch just dealt to its slot,
            // losing them and hanging that launch's completion wait.
            if (victim.compare_exchange_weak(r, packRange(b, e - 1ull),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
                chunk = e - 1ull;
                obs::add(obs::Counter::PoolChunksStolen);
                return true;
            }
        }
    }
    return false;
}

void ThreadPool::executeChunk(std::size_t chunk) {
    if (!abort_.load(std::memory_order_relaxed)) {
        const std::size_t begin = chunk * grain_;
        const std::size_t end = std::min(begin + grain_, n_);
        try {
            fn_(ctx_, begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> g(errMu_);
            if (!error_) error_ = std::current_exception();
            abort_.store(true, std::memory_order_relaxed);
        }
    }
    finishChunk();
}

void ThreadPool::finishChunk() {
    if (chunksLeft_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        if (callerParked_.load(std::memory_order_seq_cst)) {
            std::lock_guard<std::mutex> g(doneMu_);
            doneCv_.notify_one();
        }
    }
}

double blockReduceLogSumExp(ThreadPool* pool, std::span<const double> logValues,
                            std::size_t blockDim) {
    if (logValues.empty()) return -std::numeric_limits<double>::infinity();
    blockDim = std::max<std::size_t>(1, blockDim);
    std::vector<double> partial((logValues.size() + blockDim - 1) / blockDim);
    launchBlocked(pool, logValues.size(), blockDim,
                  [&](std::size_t b, std::size_t lo, std::size_t hi) {
                      partial[b] = logSumExp(logValues.subspan(lo, hi - lo));
                  });
    return logSumExp(partial);
}

}  // namespace mpcgs
