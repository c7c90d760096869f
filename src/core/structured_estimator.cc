#include "core/structured_estimator.h"

#include <memory>

#include "core/em_run.h"
#include "core/structured_sampler.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "rng/splitmix.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

/// Fingerprint tag of structured-estimator snapshots ("STRC" again — the
/// payload layouts are versioned by the file header, the tag only guards
/// against feeding a single-population snapshot to the structured driver).
constexpr std::uint32_t kStructuredRunTag = 0x43525453u;

void writeModel(CheckpointWriter& w, const MigrationModel& m) {
    w.doubles(m.theta);
    w.doubles(m.mig);
}

MigrationModel readModel(CheckpointReader& r) {
    MigrationModel m;
    m.theta = r.doubles();
    m.mig = r.doubles();
    if (m.theta.empty() || m.mig.size() != m.theta.size() * m.theta.size())
        throw CheckpointError("corrupt snapshot: migration model shape mismatch");
    return m;
}

void fingerprint(Fingerprint& f, const StructuredOptions& opts, const Alignment& aln,
                 const std::vector<int>& tipDemes) {
    if (f.version() < 3)
        throw ConfigError(
            "resume: structured runs need a format v3 snapshot (found version " +
            std::to_string(f.version()) + ")");
    f.u32(kStructuredRunTag)
        .u64(opts.seed)
        .u64(opts.samplesPerIteration)
        .u64(opts.burnInFraction1000)
        .u64(opts.chains)
        .f64(opts.pathRefreshProb)
        .str(opts.substModel)
        .f64(opts.stopRhat)
        .f64(opts.stopEss)
        .doubles(opts.init.theta)
        .doubles(opts.init.mig)
        .u64(tipDemes.size());
    for (const int d : tipDemes) f.u32(static_cast<std::uint32_t>(d));
    f.u64(aln.sequenceCount()).u64(aln.length());
}

}  // namespace

void validateStructuredOptions(const StructuredOptions& opts) {
    opts.init.validate();
    if (opts.init.demeCount() < 2)
        throw ConfigError("structured options: need at least 2 demes");
    if (opts.emIterations == 0)
        throw ConfigError("structured options: need >= 1 EM iteration");
    if (opts.samplesPerIteration == 0)
        throw ConfigError("structured options: need >= 1 sample per EM iteration");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("structured options: burn-in permille must be <= 1000");
    if (opts.chains == 0) throw ConfigError("structured options: need >= 1 chain");
    if (opts.pathRefreshProb < 0.0 || opts.pathRefreshProb >= 1.0)
        throw ConfigError("structured options: pathRefreshProb must be in [0, 1)");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("structured options: resume requires a checkpointPath");
}

StructuredResult estimateStructured(const Alignment& aln, const std::vector<int>& tipDemes,
                                    const StructuredOptions& opts, ThreadPool* pool) {
    validateStructuredOptions(opts);
    const int K = opts.init.demeCount();
    if (tipDemes.size() != aln.sequenceCount())
        throw ConfigError("estimateStructured: one deme assignment per sequence required");
    for (const int d : tipDemes)
        if (d < 0 || d >= K)
            throw ConfigError("estimateStructured: tip deme out of range");
    bool allInOneDeme = false;
    for (int k = 0; k < K && !allInOneDeme; ++k) {
        int n = 0;
        for (const int d : tipDemes) n += d == k ? 1 : 0;
        allInOneDeme = n == static_cast<int>(tipDemes.size());
    }
    if (allInOneDeme)
        throw ConfigError(
            "estimateStructured: all sequences in one deme — migration rates are "
            "unidentifiable; run the single-population pipeline instead");

    Timer total;
    const std::unique_ptr<SubstModel> model = makeInferenceModel(opts.substModel, aln);
    const DataLikelihood lik(aln, *model, opts.compressPatterns);

    StructuredResult result;
    MigrationModel driving = opts.init;

    // Warm start: a seeded draw from the structured prior at the driving
    // values (labels must be consistent from step one; data-independent
    // initialization is standard MCMC warmup and burn-in absorbs it).
    Mt19937 initRng = Mt19937::fromSplitMix(splitMix64At(opts.seed, 0x53545243ull));
    StructuredGenealogy current = simulateStructuredCoalescent(tipDemes, driving, initRng);
    current.tree().setTipNames(aln.names());

    EmRun run(opts, pool, EmRun::Layout::OneSlot, "estimateStructured", opts.emIterations,
              {[&](Fingerprint& f) { fingerprint(f, opts, aln, tipDemes); },
               [&](CheckpointWriter& w) {
                   writeModel(w, driving);
                   writeHistory(w, result.history,
                                [](CheckpointWriter& hw, const StructuredEmRecord& h) {
                                    writeModel(hw, h.before);
                                    writeModel(hw, h.after);
                                });
                   writeStructuredGenealogy(w, current);
               },
               [&](CheckpointReader& r) {
                   driving = readModel(r);
                   result.history = readHistory<StructuredEmRecord>(
                       r, [](CheckpointReader& hr, StructuredEmRecord& h) {
                           h.before = readModel(hr);
                           h.after = readModel(hr);
                       });
                   current = readStructuredGenealogy(r, K);
               }});

    // Tick budgets mirror the MultiChain strategy: one lockstep round per
    // tick, burn-in as the configured permille of the serial step count.
    const std::size_t capTicks =
        (opts.samplesPerIteration + opts.chains - 1) / opts.chains;
    const std::size_t burnTicks =
        (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;

    for (std::size_t em = run.resume(); em < opts.emIterations; ++em) {
        run.checkStop(em);
        StructuredEmRecord rec;
        rec.before = driving;

        Timer estep;
        StructuredChainsSampler sampler(lik, driving, current, opts.chains,
                                        emSeed(opts.seed, em), opts.pathRefreshProb, pool);
        StructuredSummarySink sink(K);
        ConvergenceMonitor monitor;
        const LocusRunReport report =
            run.sample(em, {LocusSlot{&sampler, &sink, &monitor}}, burnTicks, capTicks,
                       driving.theta.empty() ? 0.0 : driving.theta.front(), opts.seed)
                .loci[0];
        rec.seconds = estep.seconds();
        rec.samples = report.samples;
        rec.stoppedEarly = report.stoppedEarly;
        rec.rhat = report.rhat;
        rec.ess = report.ess;
        rec.moveRate = sampler.stats().moveRate();

        current = sampler.structuredContinuation();

        // Profile M-step over the structured relative likelihood.
        result.finalSummaries = sink.chainMajor();
        result.finalDriving = rec.before;
        const StructuredRelativeLikelihood rl(result.finalSummaries, rec.before);
        const StructuredMleResult mle = maximizeStructured(rl, driving, 1e-5, 10, pool);
        driving = mle.model;
        rec.after = driving;
        rec.logLAtMax = mle.logL;
        result.history.push_back(rec);
        run.boundary(em);
    }

    result.estimate = driving;
    for (const StructuredEmRecord& h : result.history) result.samplingSeconds += h.seconds;
    const StructuredRelativeLikelihood rl(result.finalSummaries, result.finalDriving);
    const int coords = structuredCoordinateCount(K);
    result.support.reserve(static_cast<std::size_t>(coords));
    for (int c = 0; c < coords; ++c)
        result.support.push_back(structuredSupportInterval(rl, result.estimate, c, 1.92, pool));
    result.totalSeconds = total.seconds();
    return result;
}

}  // namespace mpcgs
