// Chain-level scheduling across the ThreadPool.
//
// The runtime's ensemble strategies (multi-chain rounds, MC^3 sweeps) all
// reduce to the same shape: P per-chain step functions that may run
// concurrently, separated by serialized barrier sections (swap points,
// sample emission, stopping checks). ChainScheduler packages that shape
// with the determinism contract the runtime depends on: each chain touches
// only its own state and RNG stream during the parallel section, so the
// result is bitwise invariant to the worker count — the parallel section
// only changes *when* chains step, never *what* they compute.
//
// This turns the previously serial HeatedChains sweep into a pool-parallel
// one (every chain's proposal + likelihood evaluation runs concurrently,
// the swap decision stays serialized), and gives MultiChain its lockstep
// rounds for convergence-checked sampling.
#pragma once

#include <cstddef>

#include "par/thread_pool.h"

namespace mpcgs {

class ChainScheduler {
  public:
    /// A scheduler for `chains` logical chains on `pool` (nullptr = serial).
    ChainScheduler(ThreadPool* pool, std::size_t chains)
        : pool_(pool), chains_(chains) {}

    std::size_t chains() const { return chains_; }
    ThreadPool* pool() const { return pool_; }

    /// Parallel section: run step(c) once for every chain c. Each chain is
    /// one unit of work (no chunking), so a chain never migrates mid-step.
    /// Templated so the callable reaches the pool's non-type-erased launch
    /// path directly — no std::function construction per round.
    template <class Step>
    void stepChains(Step&& step) const {
        forEachIndex(pool_, chains_, step, /*grain=*/1);
    }

    /// One synchronized round: the parallel section followed by a
    /// serialized barrier section on the calling thread (run even for a
    /// single chain).
    template <class Step, class Barrier>
    void round(Step&& step, Barrier&& barrier) const {
        stepChains(step);
        barrier();
    }

  private:
    ThreadPool* pool_;
    std::size_t chains_;
};

}  // namespace mpcgs
