// CUDA-launch-shaped facade over the thread pool.
//
// The paper structures its device work as kernels launched over a grid of
// blocks (§5.2), with a two-stage (intra-block, then cross-block)
// reduction. This header keeps the two shapes the sampler code uses: a
// blocked launch over contiguous index ranges (the data-likelihood and
// particle kernels) and the log-space block reduction of the posterior
// kernel (§5.2.3). Per-index launches go straight to forEachIndex
// (par/thread_pool.h).
//
// launchBlocked is a template: the callable is compiled into the pool's
// per-chunk trampoline (one indirect call per block), with no
// std::function construction or allocation on the hot path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "par/thread_pool.h"
#include "util/logspace.h"

namespace mpcgs {

/// Launch `f(blockIndex, begin, end)` over [0, n) partitioned into
/// contiguous blocks of `blockSize` indices (the last block may be short).
/// Blocks are distributed dynamically across the pool; a null pool runs
/// them in order on the calling thread. This is the grid geometry of the
/// data-likelihood kernel (§5.2.2) with site-pattern blocks as CUDA blocks:
/// each launch owns a contiguous, cache-resident slice of patterns, and the
/// partition depends only on (n, blockSize), so results that reduce
/// per-block are bitwise independent of thread count.
template <class F>
void launchBlocked(ThreadPool* pool, std::size_t n, std::size_t blockSize, F&& f) {
    if (n == 0) return;
    blockSize = std::max<std::size_t>(1, blockSize);
    const std::size_t blocks = (n + blockSize - 1) / blockSize;
    forEachIndex(
        pool, blocks,
        [&](std::size_t b) {
            const std::size_t lo = b * blockSize;
            f(b, lo, std::min(lo + blockSize, n));
        },
        /*grain=*/1);
}

/// Two-stage log-space additive reduction (log-sum-exp per block, then a
/// cross-block log-sum-exp); the underflow-safe form used by the posterior
/// kernel (§5.2.3 + §5.3).
double blockReduceLogSumExp(ThreadPool* pool, std::span<const double> logValues,
                            std::size_t blockDim);

}  // namespace mpcgs
