#include "core/driver.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "core/em_run.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phylo/upgma.h"
#include "seq/distance.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

SamplerSpec specFor(const MpcgsOptions& opts, std::uint64_t seed) {
    SamplerSpec s;
    s.strategy = opts.strategy;
    s.seed = seed;
    s.gmhProposals = opts.gmhProposals;
    s.gmhSamplesPerSet = opts.gmhSamplesPerSet;
    s.chains = opts.chains;
    s.temperatures = opts.temperatures;
    return s;
}

struct RunGeometry {
    std::size_t burnTicks = 0;
    std::size_t capTicks = 0;
};

/// Tick budgets per strategy. A tick is the strategy's natural unit (MH
/// step, GMH proposal set, multi-chain round, MC^3 sweep); the budgets
/// reproduce the sample counts of the per-strategy glue this runtime
/// replaced: ceil(M / samplesPerTick) sampling ticks, burn-in as the
/// configured permille of the strategy's serial step count. In a
/// multi-locus run every locus gets the same budget (samplesPerIteration
/// is per locus).
RunGeometry geometryFor(const MpcgsOptions& opts) {
    RunGeometry g;
    switch (opts.strategy) {
        case Strategy::Gmh: {
            const std::size_t sampleIters =
                (opts.samplesPerIteration + opts.gmhSamplesPerSet - 1) / opts.gmhSamplesPerSet;
            g.capTicks = sampleIters;
            g.burnTicks = (sampleIters * opts.burnInFraction1000 + 999) / 1000;
            break;
        }
        case Strategy::SerialMh:
        case Strategy::HeatedMh:
            g.capTicks = opts.samplesPerIteration;
            g.burnTicks = (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;
            break;
        case Strategy::MultiChain:
            g.capTicks = (opts.samplesPerIteration + opts.chains - 1) / opts.chains;
            g.burnTicks = (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;
            break;
    }
    return g;
}

// Snapshot fingerprint, history and context words: the estimateTheta
// layout in core/em_run.h.

void fingerprint(Fingerprint& f, const MpcgsOptions& opts, const Dataset& ds) {
    f.u32(static_cast<std::uint32_t>(opts.strategy))
        .u64(opts.seed)
        .u64(opts.samplesPerIteration)
        .u64(opts.burnInFraction1000)
        .u64(opts.gmhProposals)
        .u64(opts.gmhSamplesPerSet)
        .u64(opts.chains)
        .doubles(opts.temperatures)
        .str(opts.substModel)
        // The retired dirty-path flag word, always 0: a snapshot of the
        // removed dirty-path serial MH (1 here) is a configuration mismatch.
        .u32(0)
        .f64(opts.theta0)
        .f64(opts.stopRhat)
        .f64(opts.stopEss);
    if (f.version() >= 2) {
        f.roster(ds);
    } else {
        // v1: single-locus fingerprint tail (sequence count + length).
        f.expect(ds.locusCount() == 1 && ds.locus(0).mutationScale == 1.0)
            .u64(ds.locus(0).alignment.sequenceCount())
            .u64(ds.locus(0).alignment.length());
    }
}

}  // namespace

void validateOptions(const MpcgsOptions& opts) {
    if (opts.theta0 <= 0.0) throw ConfigError("options: theta0 must be positive");
    if (opts.emIterations == 0) throw ConfigError("options: need >= 1 EM iteration");
    if (opts.samplesPerIteration == 0)
        throw ConfigError("options: need >= 1 sample per EM iteration");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("options: burn-in permille must be <= 1000");
    if (opts.gmhProposals == 0) throw ConfigError("options: GMH needs proposals >= 1");
    if (opts.gmhSamplesPerSet == 0)
        throw ConfigError("options: GMH needs gmhSamplesPerSet >= 1");
    if (opts.chains == 0) throw ConfigError("options: MultiChain needs chains >= 1");
    if (opts.temperatures.empty())
        throw ConfigError("options: temperature ladder must not be empty");
    if (opts.temperatures.front() != 1.0)
        throw ConfigError("options: temperature ladder must start at 1.0 (the cold chain)");
    opts.validate();
}

namespace {

/// Every flag mpcgs_main accepts and the run modes that read it
/// (space-separated; nullptr = every mode). Any other --key is rejected.
struct CliFlag {
    const char* flag;
    const char* modes;
};

constexpr CliFlag kCliFlags[] = {
    // Read by main() before any mode runs.
    {"failpoints", nullptr},
    {"metrics-out", "mcmc smc pmmh structured online-init serve"},
    {"trace-out", "mcmc smc pmmh structured online-init serve"},
    {"threads", "mcmc smc pmmh structured online-init serve"},
    {"seed", "mcmc smc pmmh structured online-init"},
    {"model", "mcmc smc pmmh structured online-init"},
    {"max-wall-time", "mcmc smc pmmh structured serve"},
    {"algo", "mcmc smc pmmh structured"},
    {"loci-manifest", "mcmc smc pmmh structured"},
    {"checkpoint", "mcmc smc pmmh structured"},
    {"checkpoint-interval", "mcmc pmmh structured"},
    {"resume", "mcmc smc pmmh structured"},
    {"resume-policy", "mcmc smc pmmh structured"},
    // Mode-specific.
    {"particles", "smc pmmh online-init"},
    {"resampling", "smc pmmh online-init serve"},
    {"ess-threshold", "smc pmmh online-init serve"},
    {"pmmh-sigma", "pmmh"},
    {"strategy", "mcmc"},
    {"proposals", "mcmc"},
    {"set-samples", "mcmc"},
    {"em", "mcmc smc structured"},
    {"samples", "mcmc pmmh structured"},
    {"chains", "mcmc pmmh structured"},
    {"curve", "mcmc smc"},
    {"stop-rhat", "mcmc pmmh structured"},
    {"stop-ess", "mcmc pmmh structured"},
    {"populations", "structured"},
    {"mig-init", "structured"},
    {"path-refresh", "structured"},
    {"pop-map", "structured"},
    // Subcommands.
    {"state", "online-init serve"},
    {"rejuvenation-sweeps", "serve"},
    {"trace", "serve"},
    {"socket", "serve serve-send"},
    {"port", "serve serve-send"},
    {"host", "serve serve-send"},
};

bool modeListed(const char* modes, const std::string& mode) {
    const std::string all(modes);
    std::size_t pos = 0;
    while (pos < all.size()) {
        std::size_t end = all.find(' ', pos);
        if (end == std::string::npos) end = all.size();
        if (all.compare(pos, end - pos, mode) == 0) return true;
        pos = end + 1;
    }
    return false;
}

}  // namespace

void validateCliFlags(const Options& opts, const std::string& mode) {
    for (const std::string& key : opts.keys()) {
        const CliFlag* known =
            std::find_if(std::begin(kCliFlags), std::end(kCliFlags),
                         [&](const CliFlag& cf) { return key == cf.flag; });
        if (known == std::end(kCliFlags)) throw ConfigError("unknown option --" + key);
        if (known->modes == nullptr || modeListed(known->modes, mode)) continue;
        std::string applicable(known->modes);
        for (std::size_t i = 0; i < applicable.size(); ++i) {
            if (applicable[i] != ' ') continue;
            applicable.replace(i, 1, " | ");
            i += 2;  // step past the insertion so its space isn't re-expanded
        }
        throw ConfigError("--" + key + " does not apply to a " + mode +
                          " run (applicable: " + applicable + ")");
    }
}

Genealogy initialGenealogy(const Alignment& aln, double theta0) {
    if (theta0 <= 0.0) throw ConfigError("initialGenealogy: theta0 must be positive");
    Genealogy g = upgmaTree(hammingMatrix(aln));
    g.setTipNames(aln.names());
    scaleToExpectedHeight(g, theta0);
    return g;
}

PooledRelativeLikelihood pooledLikelihood(const std::vector<LocusFinal>& loci) {
    std::vector<PooledRelativeLikelihood::LocusTerm> terms;
    terms.reserve(loci.size());
    for (const LocusFinal& lf : loci)
        terms.push_back({RelativeLikelihood(lf.summaries, lf.drivingTheta),
                         lf.mutationScale, lf.name});
    return PooledRelativeLikelihood(std::move(terms));
}

PooledRelativeLikelihood finalPooledLikelihood(const MpcgsResult& result) {
    return pooledLikelihood(result.loci);
}

void writeThetaHistory(CheckpointWriter& w, const std::vector<EmIterationRecord>& history) {
    writeHistory(w, history, [](CheckpointWriter& hw, const EmIterationRecord& h) {
        hw.f64(h.thetaBefore);
        hw.f64(h.thetaAfter);
    });
}

std::vector<EmIterationRecord> readThetaHistory(CheckpointReader& r) {
    return readHistory<EmIterationRecord>(r, [](CheckpointReader& hr, EmIterationRecord& h) {
        h.thetaBefore = hr.f64();
        h.thetaAfter = hr.f64();
    });
}

MpcgsResult estimateTheta(const Dataset& dataset, const MpcgsOptions& opts,
                          ThreadPool* pool) {
    validateOptions(opts);
    dataset.validate();
    const std::size_t L = dataset.locusCount();
    if (opts.strategy == Strategy::Gmh)
        for (const Locus& locus : dataset.loci())
            if (locus.alignment.sequenceCount() < 3)
                throw ConfigError("estimateTheta: GMH needs at least 3 sequences (locus '" +
                                  locus.name + "')");

    Timer total;
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);

    MpcgsResult result;
    double theta = opts.theta0;
    // Each locus's warm start for the current EM iteration.
    std::vector<Genealogy> current;
    current.reserve(L);
    for (std::size_t l = 0; l < L; ++l)
        current.push_back(initialGenealogy(dataset.locus(l).alignment,
                                           opts.theta0 * dataset.locus(l).mutationScale));

    EmRun run(opts, pool, EmRun::Layout::PerLocus, "estimateTheta", opts.emIterations,
              {[&](Fingerprint& f) { fingerprint(f, opts, dataset); },
               [&](CheckpointWriter& w) {
                   w.f64(theta);
                   writeThetaHistory(w, result.history);
                   for (const Genealogy& g : current) writeGenealogy(w, g);
               },
               [&](CheckpointReader& r) {
                   theta = r.f64();
                   result.history = readThetaHistory(r);
                   for (Genealogy& g : current) g = readGenealogy(r);
               }});
    const RunGeometry geom = geometryFor(opts);
    std::vector<LocusFinal> finals(L);

    for (std::size_t em = run.resume(); em < opts.emIterations; ++em) {
        run.checkStop(em);
        const obs::TraceSpan emSpan("em_iteration", "mcmc");
        EmIterationRecord rec;
        rec.thetaBefore = theta;

        Timer estep;
        // One sampler per locus over P(D_l|G_l) * P(G_l | mu_l theta), each
        // with its own SplitMix64-derived stream family. With several loci
        // the loci axis carries the parallelism (samplers run pool-free
        // inside the lockstep rounds); a single locus keeps the pool for
        // its intra-strategy parallel sections, exactly the pre-dataset
        // configuration.
        const std::uint64_t seed = emSeed(opts.seed, em);
        std::vector<std::unique_ptr<Sampler>> samplers;
        std::vector<SummarySink> sinks(L);
        std::vector<ConvergenceMonitor> monitors(L);
        std::vector<LocusSlot> slots;
        for (std::size_t l = 0; l < L; ++l) {
            samplers.push_back(makeSampler(specFor(opts, locusStreamSeed(seed, l)),
                                           liks.at(l),
                                           theta * dataset.locus(l).mutationScale, current[l],
                                           L == 1 ? pool : nullptr));
            slots.push_back({samplers[l].get(), &sinks[l], &monitors[l]});
        }
        const MultiLocusReport report =
            run.sample(em, std::move(slots), geom.burnTicks, geom.capTicks, theta, seed);
        rec.seconds = estep.seconds();
        recordReport(rec, report);
        SamplerStats stats;
        for (const auto& s : samplers) stats += s->stats();
        rec.moveRate =
            opts.strategy == Strategy::HeatedMh ? stats.swapRate() : stats.moveRate();
        obs::add(obs::Counter::McmcSteps, stats.steps);
        obs::add(obs::Counter::McmcAccepted, stats.accepted);
        obs::add(obs::Counter::McmcSwapsProposed, stats.swapsProposed);
        obs::add(obs::Counter::McmcSwapsAccepted, stats.swapsAccepted);
        if (rec.rhat > 0.0) obs::set(obs::Gauge::McmcRhat, rec.rhat);
        if (rec.ess > 0.0) obs::set(obs::Gauge::McmcPooledEss, rec.ess);

        // M-step: pooled relative likelihood over the per-locus summaries,
        // each locus's curve driven at its effective theta.
        for (std::size_t l = 0; l < L; ++l) {
            current[l] = samplers[l]->continuation();
            finals[l] = {dataset.locus(l).name, dataset.locus(l).mutationScale,
                         rec.thetaBefore * dataset.locus(l).mutationScale,
                         sinks[l].chainMajor()};
        }
        const PooledRelativeLikelihood rl = pooledLikelihood(finals);
        const obs::TraceSpan mSpan("m_step", "mcmc");
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
    result.totalSeconds = total.seconds();
    return result;
}

MpcgsResult estimateTheta(const Alignment& aln, const MpcgsOptions& opts, ThreadPool* pool) {
    return estimateTheta(Dataset::single(aln), opts, pool);
}

}  // namespace mpcgs
