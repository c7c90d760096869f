// SMC-based inference drivers — the `--algo smc|pmmh` pipelines.
//
// estimateThetaSmc: Monte Carlo EM with a particle filter as the E-step.
// Each EM iteration runs one SMC pass per locus at the driving mu_l *
// theta, resamples the final cloud (a weighted sample of complete
// genealogies; Chen & Xie) to N equal-weight genealogies, and hands their
// interval summaries to the same Eq. 26 relative likelihood, pooled
// M-step and support interval as estimateTheta. It runs on EmRun
// (core/em_run.h) with snapshots at EM boundaries, so kill + --resume
// continues bitwise-identically. The pooled log marginal likelihood of
// the last pass (at its driving theta) is reported for model comparison.
//
// runPmmh: particle-marginal MH over theta through the unified sampler
// runtime — PmmhSampler in EmRun's one-phase run with parallel chains,
// streaming sinks, R-hat/ESS convergence stopping and periodic 'PSMC'
// (format v4) snapshots; kill + --resume continues bitwise-identically,
// and a resumed run may extend the sample horizon (the cap is deliberately
// outside the snapshot fingerprint).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/supervisor.h"
#include "core/support_interval.h"
#include "par/thread_pool.h"
#include "seq/dataset.h"
#include "smc/pmmh.h"
#include "smc/smc_sampler.h"

namespace mpcgs {

/// estimateThetaSmc's options; the checkpoint settings are the RunControl
/// base (core/supervisor.h). An SMC pass has no chains to converge and
/// snapshots fall only at EM boundaries, so stopRhat, stopEss and
/// checkpointIntervalTicks must stay 0.
struct SmcEstimateOptions : RunControl {
    double theta0 = 1.0;
    std::size_t emIterations = 4;  ///< EM iterations, one SMC pass per locus each
    SmcOptions smc;
    std::uint64_t seed = 20160408;
    std::string substModel = "F81";
    bool compressPatterns = true;
};

/// estimateTheta's result for the SMC E-step. Each history record's `ess`
/// is the smallest final-cloud ESS over the loci, `samples` the resampled
/// genealogies summed over loci, and `moveRate` 0.
struct SmcEstimateResult : MpcgsResult {
    SupportInterval support;  ///< 1.92-unit drop interval on the final pooled curve
    double logZ = 0.0;        ///< pooled log marginal likelihood at finalDrivingTheta
};

/// Monte Carlo EM over theta with one SMC pass per locus per iteration.
/// `pool` parallelizes the particle blocks of every pass and the M-step;
/// results are bitwise identical for any pool width.
SmcEstimateResult estimateThetaSmc(const Dataset& dataset, const SmcEstimateOptions& opts,
                                   ThreadPool* pool = nullptr);

/// The stop/checkpoint settings are the RunControl base
/// (core/supervisor.h).
struct PmmhEstimateOptions : RunControl {
    double theta0 = 1.0;
    PmmhOptions pmmh;
    std::size_t samples = 2000;           ///< theta draws summed over chains
    std::size_t burnInFraction1000 = 100; ///< burn-in as permille of the tick cap
    std::string substModel = "F81";
    bool compressPatterns = true;
};

struct PmmhEstimateResult {
    double posteriorMean = 0.0;
    double posteriorSd = 0.0;
    double q025 = 0.0;   ///< central 95% credible interval bounds + median
    double median = 0.0;
    double q975 = 0.0;
    double acceptRate = 0.0;
    std::size_t samples = 0;
    double rhat = 0.0;
    double ess = 0.0;
    bool stoppedEarly = false;
    double totalSeconds = 0.0;
    std::vector<double> thetaChainMajor;  ///< pooled posterior draws, chain-major
};

/// Run PMMH over theta through the sampler runtime. `pool` parallelizes
/// the chain axis (chains > 1) or the single chain's particle blocks;
/// results are bitwise identical for any pool width.
PmmhEstimateResult runPmmh(const Dataset& dataset, const PmmhEstimateOptions& opts,
                           ThreadPool* pool = nullptr);

}  // namespace mpcgs
