// Particle-marginal Metropolis-Hastings over theta (Andrieu, Doucet &
// Holenstein 2010; Chen & Xie 2013 apply it to Kingman's coalescent).
//
// Each chain carries a scalar theta; one transition proposes a log-normal
// random walk theta' = theta * exp(sigma * z) and runs a fresh SMC pass
// (per-locus clouds, pooled logZ) at theta'. Because log Zhat is an
// UNBIASED estimator of P(D | theta), accepting with the noisy estimate in
// place of the exact marginal targets the exact posterior over theta —
// the pseudo-marginal property. Under the scale-invariant prior
// p(theta) ∝ 1/theta, the log-normal proposal's Jacobian cancels the
// prior ratio exactly, so the log acceptance ratio is just
// logZhat' - logZhat (bounded to [thetaMin, thetaMax] to stay proper).
//
// PmmhSampler implements the Sampler interface: chains step in parallel,
// one chain per forEachIndex work unit (inner SMC passes claim the pool
// only for a single chain, mirroring the MultiLocusRun nesting discipline),
// every chain owns a SplitMix64-derived Mt19937 stream plus a
// counter-based pass-seed sequence (stateless given the serialized
// evaluation counter, so checkpoint/resume is bitwise-identical), samples
// stream to any SampleSink, and R-hat/ESS stopping applies to the theta
// log-posterior trace. Snapshots carry the 'PSMC' section tag (format v4).
#pragma once

#include <cstdint>
#include <vector>

#include "mcmc/sampler.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "smc/smc_sampler.h"

namespace mpcgs {

/// Snapshot section tag of PmmhSampler payloads: "PSMC" little-endian.
inline constexpr std::uint32_t kPmmhSnapshotTag = 0x434D5350u;

struct PmmhOptions {
    std::size_t chains = 2;
    double proposalSigma = 0.4;   ///< sd of the log-normal random walk
    double thetaMin = 1e-6;       ///< prior support bounds (1/theta within)
    double thetaMax = 1e6;
    std::uint64_t seed = 1;
    SmcOptions smc;               ///< inner filter geometry
};

/// Throws ConfigError on nonsensical options (no chains, non-positive
/// sigma, empty/inverted prior support, bad SMC geometry).
void validatePmmhOptions(const PmmhOptions& opts);

class PmmhSampler final : public Sampler {
  public:
    /// `marginal` supplies the per-locus SMC passes (summed into the
    /// pooled logZ) and must outlive the sampler. `pool` parallelizes the
    /// chain axis when chains > 1, otherwise the single chain's particle
    /// blocks; results are bitwise identical for any pool width.
    PmmhSampler(const PooledSmcLikelihood& marginal, double thetaInit,
                const PmmhOptions& opts, ThreadPool* pool = nullptr);

    std::uint32_t chainCount() const override {
        return static_cast<std::uint32_t>(chains_.size());
    }
    std::size_t samplesPerTick() const override { return chains_.size(); }
    void tick(SampleSink* sink) override;
    const Genealogy& continuation() const override { return chains_.front().tree; }
    SamplerStats stats() const override;

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

    double chainTheta(std::size_t c) const { return chains_[c].theta; }
    double chainLogZ(std::size_t c) const { return chains_[c].logZ; }
    /// Per-chain theta values recorded at every SAMPLING tick (burn-in
    /// ticks drive the chain but record nothing) — the posterior sample.
    const std::vector<double>& thetaTrace(std::size_t c) const {
        return chains_[c].trace;
    }

  private:
    struct Chain {
        double theta = 0.0;
        double logZ = 0.0;
        Genealogy tree;              ///< locus-0 genealogy of the last accepted pass
        Mt19937 rng;
        std::uint64_t evals = 0;     ///< SMC passes run (indexes the pass-seed sequence)
        std::uint64_t steps = 0;     ///< MH transitions attempted
        std::uint64_t accepted = 0;
        std::vector<double> trace;
        /// Last SMC marginal-likelihood estimate this chain computed (the
        /// proposal's, whether or not it was accepted). Checked by the
        /// numeric guard in the serial section after each tick — a NaN
        /// logZhat would otherwise be silently rejected by the NaN-false
        /// acceptance comparison and leave no trace. Transient diagnostic
        /// state, not serialized.
        double lastProposalLogZ = 0.0;
        double lastProposalTheta = 0.0;
    };

    void stepChain(std::size_t c);
    std::uint64_t passSeed(std::size_t c, std::uint64_t eval) const;

    const PooledSmcLikelihood& marginal_;
    PmmhOptions opts_;
    ThreadPool* pool_;
    std::vector<Chain> chains_;
    bool initialized_ = false;     ///< chains ran their theta0 pass (lazy: load skips it)
    std::uint64_t sampleRounds_ = 0;
};

}  // namespace mpcgs
