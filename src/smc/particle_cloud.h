// ParticleCloud — the state container of the genealogy particle filter.
//
// N particles, each a partially-built genealogy (a forest of live subtree
// roots, growing coalescence-by-coalescence toward a full tree), plus the
// cloud-level weight machinery: 64-byte-aligned log-weight storage,
// log-space normalization (util/logspace), ESS, and ancestor-indexed
// resampling under any of the four schemes in smc/resampling.h.
//
// Conditional-likelihood state lives in a LikelihoodBackend
// (lik/lik_backend.h): a particle's live roots reference backend-owned
// partials SLOTS rather than carrying their own vectors. The slot map is
// static for a whole pass —
//
//   tip slots      [0, tips): shared read-only by every particle,
//   internal slots tips + p*(tips-1) + e: particle p's node for event e,
//   staging region p == N: one spare particle's worth, used to break
//                  copy cycles during resampling,
//
// so propagation never allocates: event e of particle p always writes the
// same slot, and resampling copies slot contents between fixed regions
// (Kahn-ordered so every copy reads pre-resample state, cycles broken
// through the staging region).
//
// Determinism contract (mirrors the sampler runtime): every particle SLOT
// owns a fixed SplitMix64-derived Mt19937 stream for the whole pass.
// Resampling copies particle STATES between slots but never moves the
// streams, and propagation touches only slot-local state, so a cloud
// stepped thread-parallel over particle blocks (par/thread_pool.h
// launchBlocked) is bitwise invariant to the worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lik/lik_backend.h"
#include "phylo/tree.h"
#include "rng/mt19937.h"
#include "smc/resampling.h"
#include "util/aligned.h"

namespace mpcgs {

/// One particle: a forest over n tips after `coalescences()` merge events.
/// Live roots reference their subtree partials by backend slot and cache
/// their root log-likelihood so one coalescence costs a single combine().
struct Particle {
    Genealogy tree;             ///< arena; topology grows as events land
    std::vector<NodeId> roots;  ///< live subtree roots, oldest arena ids
    std::vector<LikelihoodBackend::Slot> slots;  ///< parallel to roots
    std::vector<double> rootLogL;                ///< parallel to roots
    double lastEventTime = 0.0;  ///< most ancient coalescence so far

    int lineageCount() const { return static_cast<int>(roots.size()); }
};

class ParticleCloud {
  public:
    using Slot = LikelihoodBackend::Slot;

    /// A cloud of `n` particles over `backend`'s alignment tips, every
    /// particle the all-tips forest, weights uniform. Sizes the backend's
    /// slot pool, batches the tip initializations through one flush on
    /// `pool`. Slot i's RNG stream is splitMix64At(passSeed, i + 1);
    /// stream 0 is reserved for the cloud-level draws (resampling, final
    /// genealogy selection).
    ParticleCloud(std::size_t n, LikelihoodBackend& backend, int tipCount,
                  std::uint64_t passSeed, ThreadPool* pool = nullptr);

    std::size_t size() const { return particles_.size(); }
    Particle& particle(std::size_t i) { return particles_[i]; }
    const Particle& particle(std::size_t i) const { return particles_[i]; }
    Mt19937& slotRng(std::size_t i) { return slotRngs_[i]; }
    Mt19937& hostRng() { return hostRng_; }
    LikelihoodBackend& backend() { return backend_; }

    /// Backend slot owned by particle `p`'s internal node of coalescence
    /// event `e` (in [0, tips-1)); the pass-static write target.
    Slot internalSlot(std::size_t p, int e) const {
        return static_cast<Slot>(tipCount_ + p * (tipCount_ - 1) +
                                 static_cast<std::size_t>(e));
    }

    /// The log of the forest likelihood every particle shares at step 0
    /// (the deterministic initial state's weight — part of logZ).
    double initialLogForestLikelihood() const { return logL0_; }

    std::span<double> logWeights() { return {logW_.data(), particles_.size()}; }
    std::span<const double> logWeights() const { return {logW_.data(), particles_.size()}; }

    /// Normalize the log-weights in place (subtract their logSumExp) and
    /// refresh the cached linear probabilities; returns the logSumExp.
    double normalizeWeights();

    /// Linear-space normalized weights (valid after normalizeWeights()).
    std::span<const double> probabilities() const { return probs_; }

    /// ESS of the current normalized weights.
    double ess() const { return weightEss(probs_); }

    /// Resample ancestors under `scheme` from the current probabilities
    /// (drawn with the host stream), copy particle states slot-by-slot,
    /// and reset the weights to uniform. Slot RNG streams stay put. All
    /// scratch is persistent: steady-state resampling allocates nothing.
    void resample(ResamplingScheme scheme);

    /// Ancestor indices chosen by the most recent resample() (diagnostics).
    const std::vector<std::uint32_t>& lastAncestry() const { return ancestry_; }

  private:
    /// Event index of an internal slot (inverse of internalSlot's e).
    int eventOfSlot(Slot s) const {
        return static_cast<int>((s - tipCount_) % (tipCount_ - 1));
    }
    /// Copy particle state `src` into `dst`: genealogy, roots and cached
    /// logL by value, partials slot-by-slot through the backend with
    /// internal slots remapped into `dstRegion`'s slot region (the staging
    /// region is dstRegion == size()).
    void assignParticle(Particle& dst, const Particle& src, std::size_t dstRegion);

    LikelihoodBackend& backend_;
    std::size_t tipCount_ = 0;
    std::vector<Particle> particles_;
    std::vector<Mt19937> slotRngs_;
    Mt19937 hostRng_;
    AlignedDoubles logW_;
    std::vector<double> probs_;
    std::vector<std::uint32_t> ancestry_;
    double logL0_ = 0.0;

    // Persistent resample scratch (Kahn ordering + cycle staging).
    std::vector<std::uint32_t> pendingReads_;
    std::vector<std::uint32_t> copyQueue_;
    std::vector<std::uint8_t> copied_;
    Particle staged_;  ///< cycle breaker; its internal slots live in region N
};

}  // namespace mpcgs
