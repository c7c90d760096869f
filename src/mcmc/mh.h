// Standard Metropolis-Hastings chain (§2.3) — the serial baseline the
// paper compares against (production LAMARC's sampling core).
//
// Problem concept:
//   using State;
//   double logPosterior(const State&) const;              // unnormalized
//   struct Proposal { State state; double logForward; double logReverse; };
//   Proposal propose(const State& cur, Rng& rng) const;
//
// The engine accepts with probability min(1, r), where
//   log r = (logPi(x') - logPi(x)) / T + logReverse - logForward,
// which reduces to the paper's Eq. 28 ratio P(D|G')/P(D|G) when the
// proposal density equals the conditional coalescent prior. T is the
// chain's temperature: 1 for every plain chain (dividing by 1.0 is exact),
// above 1 for the heated members of an MC^3 ladder (mcmc/heated.h), which
// target the tempered posterior pi(x)^{1/T}.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "mcmc/checkpoint.h"
#include "rng/mt19937.h"

namespace mpcgs {

template <class Problem>
class MhChain {
  public:
    using State = typename Problem::State;

    MhChain(const Problem& problem, State init, std::uint64_t seed)
        : MhChain(problem, std::move(init),
                  Mt19937(static_cast<std::uint32_t>(seed ^ (seed >> 32)))) {}

    /// Chain with an explicitly derived RNG stream — the sampler runtime
    /// passes Mt19937::fromSplitMix(splitMix64At(seed, chain)) here so
    /// every chain of an ensemble owns a decorrelated stream.
    MhChain(const Problem& problem, State init, Mt19937 rng, double temperature = 1.0)
        : problem_(problem),
          current_(std::move(init)),
          logPost_(problem_.logPosterior(current_)),
          rng_(std::move(rng)),
          temperature_(temperature) {}

    /// One MH transition; returns true when the proposal was accepted.
    bool step() {
        auto prop = problem_.propose(current_, rng_);
        const double logNew = problem_.logPosterior(prop.state);
        const double logR =
            (logNew - logPost_) / temperature_ + prop.logReverse - prop.logForward;
        ++steps_;
        if (logR >= 0.0 || std::log(rng_.uniformPos()) < logR) {
            current_ = std::move(prop.state);
            logPost_ = logNew;
            ++accepted_;
            return true;
        }
        return false;
    }

    /// Burn in `burnIn` transitions, then run `samples` further transitions,
    /// passing the (possibly repeated) post-transition state to `sink` —
    /// the rejected-proposal convention of §2.3 ("the current state will be
    /// sampled again").
    template <class Sink>
    void run(std::size_t burnIn, std::size_t samples, Sink&& sink) {
        for (std::size_t i = 0; i < burnIn; ++i) step();
        for (std::size_t i = 0; i < samples; ++i) {
            step();
            sink(current_);
        }
    }

    const State& current() const { return current_; }
    /// Untempered log pi of the current state.
    double currentLogPosterior() const { return logPost_; }
    double temperature() const { return temperature_; }
    std::size_t steps() const { return steps_; }
    std::size_t acceptedCount() const { return accepted_; }
    double acceptanceRate() const {
        return steps_ == 0 ? 0.0 : static_cast<double>(accepted_) / static_cast<double>(steps_);
    }

    /// RNG stream access for checkpointing.
    Mt19937& rng() { return rng_; }
    const Mt19937& rng() const { return rng_; }

    /// Restore a snapshotted chain: state, its log-posterior and the
    /// counters (the RNG is restored separately through rng()).
    void restore(State s, double logPost, std::size_t steps, std::size_t accepted) {
        current_ = std::move(s);
        logPost_ = logPost;
        steps_ = steps;
        accepted_ = accepted;
    }

    /// Exchange states (and their log-posteriors) with `other`, keeping
    /// each chain's temperature, RNG stream and counters: the MC^3 swap.
    void swapStates(MhChain& other) {
        std::swap(current_, other.current_);
        std::swap(logPost_, other.logPost_);
    }

    /// Snapshot words of the chain: the state (through
    /// `writeState(w, state)`), its log-posterior, the step and acceptance
    /// counters, then the RNG stream. load() reads them back in the same
    /// order, the state through `readState(r)`.
    template <class WriteState>
    void save(CheckpointWriter& w, WriteState&& writeState) const {
        writeState(w, current_);
        w.f64(logPost_);
        w.u64(steps_);
        w.u64(accepted_);
        writeRng(w, rng_);
    }

    template <class ReadState>
    void load(CheckpointReader& r, ReadState&& readState) {
        State s = readState(r);
        const double logPost = r.f64();
        const std::size_t steps = r.u64();
        const std::size_t accepted = r.u64();
        restore(std::move(s), logPost, steps, accepted);
        readRng(r, rng_);
    }

  private:
    const Problem& problem_;
    State current_;
    double logPost_;
    Mt19937 rng_;
    double temperature_;
    std::size_t steps_ = 0;
    std::size_t accepted_ = 0;
};

}  // namespace mpcgs
