#include "core/smc_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "core/em_run.h"
#include "core/mle.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

/// Swallow the genealogy stream: PMMH's posterior lives in the theta
/// traces (kept by the sampler) and the convergence monitor.
class DiscardSink final : public SampleSink {
  public:
    void consume(const Genealogy&, const SampleTag&) override {}
};

std::vector<PooledSmcLikelihood::LocusTerm> allTerms(const Dataset& ds,
                                                     const LocusLikelihoods& liks) {
    std::vector<PooledSmcLikelihood::LocusTerm> terms;
    terms.reserve(ds.locusCount());
    for (std::size_t l = 0; l < ds.locusCount(); ++l)
        terms.push_back({&liks.at(l), ds.locus(l).mutationScale});
    return terms;
}

// Snapshot fingerprints and context words: the runPmmh and
// estimateThetaSmc layouts in core/em_run.h.

void fingerprint(Fingerprint& f, const PmmhEstimateOptions& opts, const Dataset& ds) {
    f.u32(kPmmhSnapshotTag)
        .u64(opts.pmmh.seed)
        .u64(opts.pmmh.chains)
        .u64(opts.pmmh.smc.particles)
        .u32(static_cast<std::uint32_t>(opts.pmmh.smc.scheme))
        .f64(opts.pmmh.smc.essThreshold)
        .f64(opts.pmmh.proposalSigma)
        .f64(opts.pmmh.thetaMin)
        .f64(opts.pmmh.thetaMax)
        .f64(opts.theta0)
        .u64(opts.burnInFraction1000)
        .str(opts.substModel)
        .roster(ds);
}

constexpr std::uint32_t kSmcEstimateSnapshotTag = 0x5A434D53u;  // "SMCZ"

void fingerprint(Fingerprint& f, const SmcEstimateOptions& opts, const Dataset& ds) {
    f.u32(kSmcEstimateSnapshotTag)
        .u64(opts.seed)
        .u64(opts.smc.particles)
        .u32(static_cast<std::uint32_t>(opts.smc.scheme))
        .f64(opts.smc.essThreshold)
        .f64(opts.theta0)
        .str(opts.substModel)
        .roster(ds);
}

/// Memoizing, checkpointing, stop-aware view of the pooled SMC curve.
/// Every logZ value is a deterministic function of theta (common random
/// numbers), so the memo of evaluated (theta, logZ) pairs IS the whole
/// optimizer state: a resumed run hands the deterministic maximizer the
/// cached values bitwise as it re-traverses the same theta sequence, and
/// only goes live at the first theta the interrupted run never reached.
class CheckpointedSmcLikelihood final : public ThetaLikelihood {
  public:
    CheckpointedSmcLikelihood(const PooledSmcLikelihood& inner,
                              const SmcEstimateOptions& opts, const Dataset& ds)
        : inner_(inner),
          opts_(opts),
          ds_(ds),
          snapshotEvery_(opts.checkpointIntervalEvals ? opts.checkpointIntervalEvals
                                                      : 8) {}

    double logL(double theta, ThreadPool* pool = nullptr) const override {
        const std::uint64_t key = thetaKey(theta);
        if (const auto it = index_.find(key); it != index_.end()) return it->second;
        // Stop only before a LIVE evaluation: memo replay after a resume
        // involves no new work, so cache hits never interrupt.
        if (opts_.supervisor && opts_.supervisor->stopRequested()) {
            if (!opts_.checkpointPath.empty()) snapshot();
            throw InterruptedError("stop requested before SMC curve evaluation " +
                                       std::to_string(memo_.size() + 1) + " (" +
                                       opts_.supervisor->stopReason() + ")",
                                   !opts_.checkpointPath.empty());
        }
        const double v = inner_.logL(theta, pool);
        memo_.emplace_back(theta, v);
        index_.emplace(key, v);
        if (!opts_.checkpointPath.empty() && memo_.size() % snapshotEvery_ == 0)
            snapshot();
        return v;
    }

    void loadFromSnapshot() {
        asResumeError([&] {
            const auto r = openSnapshot(
                opts_.checkpointPath, [&](Fingerprint& f) { fingerprint(f, opts_, ds_); },
                "estimateThetaSmc");
            r->enterSection("memo");
            const std::uint64_t n = r->u64();
            for (std::uint64_t i = 0; i < n; ++i) {
                const double t = r->f64();
                const double v = r->f64();
                memo_.emplace_back(t, v);
                index_.emplace(thetaKey(t), v);
            }
        });
    }

  private:
    static std::uint64_t thetaKey(double theta) {
        std::uint64_t k = 0;
        std::memcpy(&k, &theta, sizeof k);
        return k;
    }

    void snapshot() const {
        writeSnapshot(
            opts_.checkpointPath, opts_.supervisor,
            [&](Fingerprint& f) { fingerprint(f, opts_, ds_); },
            [&](CheckpointWriter& w) {
                w.beginSection("memo");
                w.u64(memo_.size());
                for (const auto& [t, v] : memo_) {
                    w.f64(t);
                    w.f64(v);
                }
            });
    }

    const PooledSmcLikelihood& inner_;
    const SmcEstimateOptions& opts_;
    const Dataset& ds_;
    std::size_t snapshotEvery_;
    mutable std::vector<std::pair<double, double>> memo_;
    mutable std::unordered_map<std::uint64_t, double> index_;
};

double quantileOfSorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

SmcEstimateResult estimateThetaSmc(const Dataset& dataset, const SmcEstimateOptions& opts,
                                   ThreadPool* pool) {
    if (opts.theta0 <= 0.0) throw ConfigError("smc: theta0 must be positive");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("smc: resume requires a checkpointPath");
    validateSmcOptions(opts.smc);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("smc_estimate", "smc");
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);
    const PooledSmcLikelihood pooled(allTerms(dataset, liks), opts.smc, opts.seed);
    CheckpointedSmcLikelihood curve(pooled, opts, dataset);
    if (opts.resume) curve.loadFromSnapshot();

    SmcEstimateResult res;
    const MleResult mle = maximizeTheta(curve, opts.theta0, pool);
    res.theta = mle.theta;
    res.logZAtMax = mle.logL;
    res.support = supportInterval(curve, res.theta, 1.92, 1e4, pool);
    if (opts.curvePoints > 0)
        res.curve = curve.curve(res.theta / 20, res.theta * 20, opts.curvePoints, pool);
    res.totalSeconds = total.seconds();
    return res;
}

PmmhEstimateResult runPmmh(const Dataset& dataset, const PmmhEstimateOptions& opts,
                           ThreadPool* pool) {
    if (opts.theta0 <= 0.0) throw ConfigError("pmmh: theta0 must be positive");
    if (opts.samples == 0) throw ConfigError("pmmh: need >= 1 sample");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("pmmh: burn-in permille must be <= 1000");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("pmmh: resume requires a checkpointPath");
    validatePmmhOptions(opts.pmmh);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("pmmh_run", "mcmc");
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);
    const PooledSmcLikelihood pooled(allTerms(dataset, liks), opts.pmmh.smc,
                                     opts.pmmh.seed);
    PmmhSampler sampler(pooled, opts.theta0, opts.pmmh, pool);

    const std::size_t capTicks =
        (opts.samples + opts.pmmh.chains - 1) / opts.pmmh.chains;
    // Planned burn-in, derived from the cap on a fresh run. A resumed run
    // takes the ORIGINAL run's value from the snapshot instead: the cap is
    // outside the fingerprint precisely so --samples can grow, and
    // recomputing burn ticks from the new cap would inject extra
    // burn ticks into the middle of an already-sampling chain.
    std::size_t burnTicks = (capTicks * opts.burnInFraction1000 + 999) / 1000;

    EmRun run(opts, pool, EmRun::Layout::OnePhase, "runPmmh", 1,
              {[&](Fingerprint& f) { fingerprint(f, opts, dataset); },
               // Freeze the burn geometry for resumes.
               [&](CheckpointWriter& w) { w.u64(burnTicks); },
               [&](CheckpointReader& r) { burnTicks = r.u64(); }});
    run.resume();
    ConvergenceMonitor monitor;
    DiscardSink sink;
    const LocusRunReport report =
        run.sample(0, {LocusSlot{&sampler, &sink, &monitor}}, burnTicks, capTicks,
                   opts.theta0, opts.pmmh.seed)
            .loci[0];

    PmmhEstimateResult res;
    res.stoppedEarly = report.stoppedEarly;
    res.rhat = report.rhat;
    res.ess = report.ess;
    const SamplerStats stats = sampler.stats();
    res.acceptRate = stats.moveRate();
    obs::add(obs::Counter::McmcSteps, stats.steps);
    obs::add(obs::Counter::McmcAccepted, stats.accepted);
    if (res.rhat > 0.0) obs::set(obs::Gauge::McmcRhat, res.rhat);
    if (res.ess > 0.0) obs::set(obs::Gauge::McmcPooledEss, res.ess);
    for (std::size_t c = 0; c < opts.pmmh.chains; ++c) {
        const std::vector<double>& trace = sampler.thetaTrace(c);
        res.thetaChainMajor.insert(res.thetaChainMajor.end(), trace.begin(), trace.end());
    }
    res.samples = res.thetaChainMajor.size();
    if (!res.thetaChainMajor.empty()) {
        double sum = 0.0;
        for (double t : res.thetaChainMajor) sum += t;
        res.posteriorMean = sum / static_cast<double>(res.samples);
        double ss = 0.0;
        for (double t : res.thetaChainMajor) {
            const double d = t - res.posteriorMean;
            ss += d * d;
        }
        res.posteriorSd = res.samples > 1
                              ? std::sqrt(ss / static_cast<double>(res.samples - 1))
                              : 0.0;
        std::vector<double> sorted = res.thetaChainMajor;
        std::sort(sorted.begin(), sorted.end());
        res.q025 = quantileOfSorted(sorted, 0.025);
        res.median = quantileOfSorted(sorted, 0.5);
        res.q975 = quantileOfSorted(sorted, 0.975);
    }
    res.totalSeconds = total.seconds();
    return res;
}

}  // namespace mpcgs
