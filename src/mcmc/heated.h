// Metropolis-coupled MCMC (MC^3, "heated chains") — the mixing aid the
// LAMARC package runs alongside its sampler and a natural baseline for the
// paper's multi-chain discussion (§2.3, §3): several chains explore
// tempered versions pi(x)^{1/T} of the posterior and periodically propose
// to swap states; only the cold chain (T = 1) is sampled.
//
// The ladder is a vector of MhChains, one per temperature, so every
// transition is MhChain::step with the log-ratio divided by that chain's
// T. Every chain owns a SplitMix64-derived Mt19937 stream and swap
// decisions draw from a dedicated stream, so (a) chain steps and swap
// decisions are decorrelated, and (b) a sweep steps the chains
// concurrently on a ThreadPool (forEachIndex, one chain per work unit)
// with results bitwise invariant to the thread count: the parallel section
// only reads/writes per-chain state, and the swap point is serialized on
// the calling thread.
//
// Problem concept: same as MhChain's (logPosterior + propose).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcmc/checkpoint.h"
#include "mcmc/mh.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "rng/splitmix.h"

namespace mpcgs {

/// The default MC^3 temperature ladder of the library and the CLI. LAMARC's
/// default ladder is {1, 1.1, 1.2, 1.3}-like; steeper ladders help
/// multi-modal posteriors.
inline constexpr std::array<double, 4> kDefaultTemperatures{1.0, 1.3, 1.8, 3.0};

struct HeatedOptions {
    /// Temperatures, first entry must be 1 (the cold chain).
    std::vector<double> temperatures =
        std::vector<double>(kDefaultTemperatures.begin(), kDefaultTemperatures.end());
    std::size_t swapInterval = 10;  ///< propose one swap every k sweeps
    std::uint64_t seed = 1;
};

struct HeatedStats {
    std::size_t swapsProposed = 0;
    std::size_t swapsAccepted = 0;
    std::size_t steps = 0;     ///< MH transitions across all chains
    std::size_t accepted = 0;  ///< accepted transitions across all chains
    double swapRate() const {
        return swapsProposed == 0
                   ? 0.0
                   : static_cast<double>(swapsAccepted) / static_cast<double>(swapsProposed);
    }
};

template <class Problem>
class HeatedChains {
  public:
    using State = typename Problem::State;

    /// `pool` parallelizes the within-sweep stepping across chains; null
    /// runs the sweep serially. Either way the results are identical.
    HeatedChains(const Problem& problem, const State& init, HeatedOptions opts,
                 ThreadPool* pool = nullptr)
        : opts_(std::move(opts)), pool_(pool),
          swapRng_(Mt19937::fromSplitMix(splitMix64At(opts_.seed, 0))) {
        if (opts_.temperatures.empty() || opts_.temperatures.front() != 1.0)
            throw std::invalid_argument("HeatedChains: temperatures must start with 1.0");
        chains_.reserve(opts_.temperatures.size());
        for (std::size_t i = 0; i < opts_.temperatures.size(); ++i) {
            const double t = opts_.temperatures[i];
            if (t < 1.0) throw std::invalid_argument("HeatedChains: temperatures must be >= 1");
            chains_.emplace_back(problem, init,
                                 Mt19937::fromSplitMix(splitMix64At(opts_.seed, i + 1)), t);
        }
    }

    /// One sweep: an MH step in every chain (parallel section), plus (every
    /// swapInterval sweeps) one proposed swap between a random adjacent
    /// pair (serialized swap point).
    void sweep() {
        forEachIndex(pool_, chains_.size(), [this](std::size_t i) { chains_[i].step(); },
                     /*grain=*/1);
        ++sweeps_;
        if (sweeps_ % opts_.swapInterval == 0 && chains_.size() > 1) proposeSwap();
    }

    template <class Sink>
    void run(std::size_t burnInSweeps, std::size_t sampleSweeps, Sink&& sink) {
        for (std::size_t i = 0; i < burnInSweeps; ++i) sweep();
        for (std::size_t i = 0; i < sampleSweeps; ++i) {
            sweep();
            sink(cold());
        }
    }

    /// Current state of the cold (T = 1) chain.
    const State& cold() const { return chains_.front().current(); }
    double coldLogPosterior() const { return chains_.front().currentLogPosterior(); }
    /// Swap counters plus per-chain step/acceptance counters aggregated.
    HeatedStats stats() const {
        HeatedStats s = stats_;
        for (const MhChain<Problem>& c : chains_) {
            s.steps += c.steps();
            s.accepted += c.acceptedCount();
        }
        return s;
    }

    /// Snapshot words: the chain count, every chain's MhChain::save words
    /// (states through `writeState`), the swap stream, then the sweep and
    /// swap counters. Loading them all resumes the sweep sequence bitwise.
    template <class WriteState>
    void save(CheckpointWriter& w, WriteState&& writeState) const {
        w.u64(chains_.size());
        for (const MhChain<Problem>& c : chains_) c.save(w, writeState);
        writeRng(w, swapRng_);
        w.u64(sweeps_);
        w.u64(stats_.swapsProposed);
        w.u64(stats_.swapsAccepted);
    }

    template <class ReadState>
    void load(CheckpointReader& r, ReadState&& readState) {
        if (r.u64() != chains_.size())
            throw CheckpointError("snapshot temperature ladder does not match configuration");
        for (MhChain<Problem>& c : chains_) c.load(r, readState);
        readRng(r, swapRng_);
        sweeps_ = r.u64();
        stats_.swapsProposed = r.u64();
        stats_.swapsAccepted = r.u64();
    }

  private:
    void proposeSwap() {
        const std::size_t i = static_cast<std::size_t>(swapRng_.below(chains_.size() - 1));
        MhChain<Problem>& a = chains_[i];
        MhChain<Problem>& b = chains_[i + 1];
        ++stats_.swapsProposed;
        // Standard MC^3 swap ratio.
        const double logR = (a.currentLogPosterior() - b.currentLogPosterior()) *
                            (1.0 / b.temperature() - 1.0 / a.temperature());
        if (logR >= 0.0 || std::log(swapRng_.uniformPos()) < logR) {
            a.swapStates(b);
            ++stats_.swapsAccepted;
        }
    }

    HeatedOptions opts_;
    ThreadPool* pool_;
    Mt19937 swapRng_;
    std::vector<MhChain<Problem>> chains_;
    HeatedStats stats_;
    std::size_t sweeps_ = 0;
};

}  // namespace mpcgs
