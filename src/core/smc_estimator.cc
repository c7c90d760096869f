#include "core/smc_estimator.h"

#include <algorithm>
#include <span>

#include "core/em_run.h"
#include "core/mle.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smc/particle_cloud.h"
#include "smc/resampling.h"
#include "util/error.h"
#include "util/stats.h"
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

/// First fingerprint word of an estimateThetaSmc snapshot ("SMCE"). The
/// retired per-theta curve maximizer wrote "SMCZ" and a memo section; its
/// snapshots are refused as a configuration mismatch.
constexpr std::uint32_t kSmcEmSnapshotTag = 0x45434D53u;

void fingerprint(Fingerprint& f, const SmcEstimateOptions& opts, const Dataset& ds) {
    f.u32(kSmcEmSnapshotTag)
        .u64(opts.seed)
        .u64(opts.smc.particles)
        .u32(static_cast<std::uint32_t>(opts.smc.scheme))
        .f64(opts.smc.essThreshold)
        .f64(opts.theta0)
        .str(opts.substModel)
        .roster(ds);
}

void validateSmcEstimateOptions(const SmcEstimateOptions& opts) {
    if (opts.theta0 <= 0.0) throw ConfigError("smc: theta0 must be positive");
    if (opts.emIterations == 0) throw ConfigError("smc: need >= 1 EM iteration");
    if (opts.stopRhat != 0.0 || opts.stopEss != 0.0)
        throw ConfigError("smc: stopRhat/stopEss do not apply (an SMC pass has no chains)");
    if (opts.checkpointIntervalTicks != 0)
        throw ConfigError(
            "smc: checkpointIntervalTicks does not apply (snapshots fall at EM boundaries)");
    opts.validate();
    validateSmcOptions(opts.smc);
}

/// One locus's E-step sample.
struct CloudSample {
    double logZ = 0.0;
    double ess = 0.0;  ///< ESS of the final weighted cloud
    std::vector<IntervalSummary> summaries;
};

/// An SMC pass at `theta` whose final cloud is resampled to N equal-weight
/// genealogies (ancestors drawn under the pass's scheme on the cloud's
/// host stream), each reduced to its interval summary.
CloudSample sampleFinalCloud(const DataLikelihood& lik, double theta, const SmcOptions& opts,
                             std::uint64_t passSeed, ThreadPool* pool) {
    const obs::TraceSpan span("smc_pass", "smc");
    LikelihoodBackend backend(lik);
    SmcFilter filter(backend, theta, opts, passSeed, pool);
    while (!filter.done()) filter.step();
    ParticleCloud& cloud = filter.cloud();
    std::vector<std::uint32_t> ancestors;
    resampleAncestors(opts.scheme, cloud.probabilities(), cloud.hostRng(), ancestors);
    CloudSample out{filter.logZ(), cloud.ess(), {}};
    out.summaries.reserve(ancestors.size());
    for (const std::uint32_t a : ancestors)
        out.summaries.push_back(IntervalSummary::fromGenealogy(cloud.particle(a).tree));
    return out;
}

}  // namespace

SmcEstimateResult estimateThetaSmc(const Dataset& dataset, const SmcEstimateOptions& opts,
                                   ThreadPool* pool) {
    validateSmcEstimateOptions(opts);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("smc_estimate", "smc");
    const std::size_t L = dataset.locusCount();
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);

    SmcEstimateResult result;
    double theta = opts.theta0;
    EmRun run(opts, pool, EmRun::Layout::PerLocus, "estimateThetaSmc", opts.emIterations,
              {[&](Fingerprint& f) { fingerprint(f, opts, dataset); },
               [&](CheckpointWriter& w) {
                   w.f64(theta);
                   writeThetaHistory(w, result.history);
               },
               [&](CheckpointReader& r) {
                   theta = r.f64();
                   result.history = readThetaHistory(r);
               }});
    std::vector<LocusFinal> finals(L);

    for (std::size_t em = run.resume(); em < opts.emIterations; ++em) {
        run.checkStop(em);
        const obs::TraceSpan emSpan("em_iteration", "smc");
        EmIterationRecord rec;
        rec.thetaBefore = theta;

        // E-step: one pass per locus at its effective theta, each locus
        // with its own stream family.
        Timer estep;
        const std::uint64_t seed = emSeed(opts.seed, em);
        result.logZ = 0.0;
        for (std::size_t l = 0; l < L; ++l) {
            const Locus& locus = dataset.locus(l);
            const double driving = theta * locus.mutationScale;
            CloudSample cs =
                sampleFinalCloud(liks.at(l), driving, opts.smc, locusStreamSeed(seed, l), pool);
            result.logZ += cs.logZ;
            rec.ess = l == 0 ? cs.ess : std::min(rec.ess, cs.ess);
            rec.samples += cs.summaries.size();
            finals[l] = {locus.name, locus.mutationScale, driving, std::move(cs.summaries)};
        }
        rec.seconds = estep.seconds();

        // M-step: estimateTheta's, over the resampled genealogies.
        const PooledRelativeLikelihood rl = pooledLikelihood(finals);
        const obs::TraceSpan mSpan("m_step", "smc");
        const MleResult mle = maximizeTheta(rl, theta, pool);
        theta = mle.theta;
        rec.thetaAfter = theta;
        rec.logLAtMax = mle.logL;
        result.history.push_back(rec);
        run.boundary(em);
    }

    result.theta = theta;
    result.loci = std::move(finals);
    result.finalSummaries = result.loci.front().summaries;
    result.finalDrivingTheta = result.history.back().thetaBefore;
    for (const EmIterationRecord& h : result.history) result.samplingSeconds += h.seconds;
    result.support =
        supportInterval(finalPooledLikelihood(result), result.theta, 1.92, 1e4, pool);
    result.totalSeconds = total.seconds();
    return result;
}

PmmhEstimateResult runPmmh(const Dataset& dataset, const PmmhEstimateOptions& opts,
                           ThreadPool* pool) {
    if (opts.theta0 <= 0.0) throw ConfigError("pmmh: theta0 must be positive");
    if (opts.samples == 0) throw ConfigError("pmmh: need >= 1 sample");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("pmmh: burn-in permille must be <= 1000");
    opts.validate();
    validatePmmhOptions(opts.pmmh);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("pmmh_run", "mcmc");
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);
    const PooledSmcLikelihood pooled(allTerms(dataset, liks), opts.pmmh.smc);
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
        const std::span<const double> draws(res.thetaChainMajor);
        res.posteriorMean = mean(draws);
        res.posteriorSd = stdev(draws);
        res.q025 = quantile(draws, 0.025);
        res.median = quantile(draws, 0.5);
        res.q975 = quantile(draws, 0.975);
    }
    res.totalSeconds = total.seconds();
    return res;
}

}  // namespace mpcgs
