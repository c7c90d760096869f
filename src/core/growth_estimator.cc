#include "core/growth_estimator.h"

#include <cmath>
#include <memory>

#include "core/driver.h"
#include "core/genealogy_problem.h"
#include "core/locus_problem.h"
#include "core/samplers.h"
#include "mcmc/checkpoint.h"
#include "par/thread_pool.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {

GrowthRelativeLikelihood::GrowthRelativeLikelihood(
    std::vector<std::vector<CoalInterval>> samples, GrowthParams driving)
    : samples_(std::move(samples)), driving_(driving) {
    require(!samples_.empty(), "GrowthRelativeLikelihood: no samples");
    logPriorAtDriving_.reserve(samples_.size());
    for (const auto& ivs : samples_)
        logPriorAtDriving_.push_back(
            logGrowthCoalescentPrior(std::span<const CoalInterval>(ivs), driving_));
}

double GrowthRelativeLikelihood::logL(const GrowthParams& p, ThreadPool* pool) const {
    require(p.theta > 0.0, "GrowthRelativeLikelihood: theta must be positive");
    std::vector<double> terms(samples_.size());
    forEachIndex(pool, samples_.size(), [&](std::size_t i) {
        terms[i] = logGrowthCoalescentPrior(std::span<const CoalInterval>(samples_[i]), p) -
                   logPriorAtDriving_[i];
    });
    return blockReduceLogSumExp(pool, terms, 256) -
           std::log(static_cast<double>(samples_.size()));
}

PooledGrowthRelativeLikelihood::PooledGrowthRelativeLikelihood(std::vector<LocusTerm> loci)
    : loci_(std::move(loci)) {
    require(!loci_.empty(), "PooledGrowthRelativeLikelihood: no loci");
    for (const LocusTerm& t : loci_)
        require(t.mutationScale > 0.0,
                "PooledGrowthRelativeLikelihood: mutation scale must be positive");
}

double PooledGrowthRelativeLikelihood::logL(const GrowthParams& p, ThreadPool* pool) const {
    double sum = 0.0;
    for (const LocusTerm& t : loci_)
        sum += t.rl.logL(GrowthParams{p.theta * t.mutationScale, p.growth}, pool);
    return sum;
}

namespace {

/// Golden-section maximization of f over [lo, hi].
template <class F>
double goldenMax(F&& f, double lo, double hi, double tol) {
    const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
    double a = lo, b = hi;
    double x1 = b - phi * (b - a);
    double x2 = a + phi * (b - a);
    double f1 = f(x1), f2 = f(x2);
    int guard = 0;
    while (b - a > tol && ++guard < 300) {
        if (f1 < f2) {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + phi * (b - a);
            f2 = f(x2);
        } else {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - phi * (b - a);
            f1 = f(x1);
        }
    }
    return 0.5 * (a + b);
}

}  // namespace

GrowthMleResult maximizeGrowthParams(const GrowthLikelihood& rl, GrowthParams start,
                                     double growthLo, double growthHi, ThreadPool* pool) {
    GrowthMleResult out;
    GrowthParams cur = start;
    double curLogL = rl.logL(cur, pool);
    for (int sweep = 0; sweep < 30; ++sweep) {
        ++out.sweeps;
        // Theta sweep in log space around the current value.
        const double logTheta = goldenMax(
            [&](double lt) {
                return rl.logL(GrowthParams{std::exp(lt), cur.growth}, pool);
            },
            std::log(cur.theta) - 3.0, std::log(cur.theta) + 3.0, 1e-7);
        cur.theta = std::exp(logTheta);
        // Growth sweep on the bounded interval.
        cur.growth = goldenMax(
            [&](double g) { return rl.logL(GrowthParams{cur.theta, g}, pool); }, growthLo,
            growthHi, 1e-7);
        const double next = rl.logL(cur, pool);
        if (next - curLogL < 1e-10) {
            curLogL = next;
            out.converged = true;
            break;
        }
        curLogL = next;
    }
    out.params = cur;
    out.logL = curLogL;
    return out;
}

namespace {

/// First fingerprint word of a growth snapshot ("GRTH"): estimateTheta's
/// first word is a strategy id and the structured estimator's "STRC", so
/// each refuses the others' snapshots.
constexpr std::uint32_t kGrowthRunTag = 0x48545247u;

/// The growth coalescent prior P(G | theta, g): the growth E-step runs
/// GmhProblem over it, proposing with the constant-size kernel at theta.
class GrowthPrior {
  public:
    explicit GrowthPrior(GrowthParams p) : p_(p) {}

    double logPrior(const Genealogy& g) const { return logGrowthCoalescentPrior(g, p_); }
    double theta() const { return p_.theta; }

  private:
    GrowthParams p_;
};

using GrowthGenealogyProblem = GmhProblem<GrowthPrior>;

/// The growth E-step's sink: each sample's interval vector. A snapshot
/// keeps only the event times (doubles): each interval begins at the
/// previous event and the lineage count falls by one per event, as in
/// Genealogy::intervals().
class IntervalSink final : public ChainMajorSink<std::vector<CoalInterval>> {
  public:
    void consume(const Genealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(g.intervals());
    }

  private:
    void writeSummary(CheckpointWriter& w, const std::vector<CoalInterval>& ivs) const override {
        std::vector<double> ends;
        for (const CoalInterval& iv : ivs) ends.push_back(iv.end);
        w.doubles(ends);
    }
    std::vector<CoalInterval> readSummary(CheckpointReader& r) const override {
        const std::vector<double> ends = r.doubles();
        std::vector<CoalInterval> ivs;
        int lineages = static_cast<int>(ends.size()) + 1;
        double begin = 0.0;
        for (const double end : ends) {
            ivs.push_back({begin, end, lineages--});
            begin = end;
        }
        return ivs;
    }
    std::size_t summaryBytes() const override { return sizeof(std::uint64_t); }
};

void validateGrowthOptions(const GrowthEstimateOptions& opts) {
    if (opts.emIterations == 0)
        throw ConfigError("estimateThetaAndGrowth: need >= 1 EM iteration");
    if (opts.samplesPerIteration == 0)
        throw ConfigError("estimateThetaAndGrowth: need >= 1 sample per EM iteration");
    if (opts.gmhProposals == 0)
        throw ConfigError("estimateThetaAndGrowth: GMH needs proposals >= 1");
    if (!(opts.driving.theta > 0.0))
        throw ConfigError("estimateThetaAndGrowth: driving theta must be positive");
    if (!(opts.growthLo < opts.growthHi))
        throw ConfigError("estimateThetaAndGrowth: need growthLo < growthHi");
    opts.validate();
}

// Snapshot fingerprint and context words: the estimateThetaAndGrowth
// layout in core/em_run.h.

void fingerprint(Fingerprint& f, const GrowthEstimateOptions& opts, const Dataset& ds) {
    f.u32(kGrowthRunTag)
        .u64(opts.seed)
        .u64(opts.samplesPerIteration)
        .u64(opts.gmhProposals)
        .f64(opts.driving.theta)
        .f64(opts.driving.growth)
        .f64(opts.growthLo)
        .f64(opts.growthHi)
        .f64(opts.stopRhat)
        .f64(opts.stopEss)
        .roster(ds);
}

void writeParams(CheckpointWriter& w, const GrowthParams& p) {
    w.f64(p.theta);
    w.f64(p.growth);
}

GrowthParams readParams(CheckpointReader& r) {
    const double theta = r.f64();
    return {theta, r.f64()};
}

}  // namespace

GrowthEstimateResult estimateThetaAndGrowth(const Dataset& dataset,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool) {
    validateGrowthOptions(opts);
    dataset.validate();
    for (const Locus& locus : dataset.loci())
        if (locus.alignment.sequenceCount() < 3)
            throw ConfigError("estimateThetaAndGrowth: locus '" + locus.name +
                              "' needs at least 3 sequences (GMH)");

    Timer total;
    const std::size_t L = dataset.locusCount();
    const LocusLikelihoods liks(dataset, "F81");

    GrowthEstimateResult result;
    GrowthParams driving = opts.driving;
    // Each locus's warm start for the current EM iteration.
    std::vector<Genealogy> current;
    current.reserve(L);
    for (const Locus& locus : dataset.loci())
        current.push_back(
            initialGenealogy(locus.alignment, driving.theta * locus.mutationScale));

    EmRun run(opts, pool, EmRun::Layout::PerLocus, "estimateThetaAndGrowth", opts.emIterations,
              {[&](Fingerprint& f) { fingerprint(f, opts, dataset); },
               [&](CheckpointWriter& w) {
                   writeParams(w, driving);
                   writeHistory(w, result.history,
                                [](CheckpointWriter& hw, const GrowthEmRecord& h) {
                                    writeParams(hw, h.before);
                                    writeParams(hw, h.after);
                                });
                   for (const Genealogy& g : current) writeGenealogy(w, g);
               },
               [&](CheckpointReader& r) {
                   driving = readParams(r);
                   result.history = readHistory<GrowthEmRecord>(
                       r, [](CheckpointReader& hr, GrowthEmRecord& h) {
                           h.before = readParams(hr);
                           h.after = readParams(hr);
                       });
                   for (Genealogy& g : current) g = readGenealogy(r);
               }});
    // M = N draws per proposal set.
    SamplerSpec spec;
    spec.gmhProposals = opts.gmhProposals;
    spec.gmhSamplesPerSet = opts.gmhProposals;
    const std::size_t ticks =
        (opts.samplesPerIteration + opts.gmhProposals - 1) / opts.gmhProposals;

    for (std::size_t em = run.resume(); em < opts.emIterations; ++em) {
        run.checkStop(em);
        GrowthEmRecord rec;
        rec.before = driving;

        // E-step: one GMH sampler per locus at its effective theta. With
        // several loci the loci axis carries the parallelism; a single
        // locus keeps the pool for its proposal fan-out.
        Timer estep;
        const std::uint64_t seed = emSeed(opts.seed, em);
        std::vector<std::unique_ptr<GmhAdapter<GrowthGenealogyProblem>>> samplers;
        std::vector<IntervalSink> sinks(L);
        std::vector<ConvergenceMonitor> monitors(L);
        std::vector<LocusSlot> slots;
        for (std::size_t l = 0; l < L; ++l) {
            spec.seed = locusStreamSeed(seed, l);
            samplers.push_back(std::make_unique<GmhAdapter<GrowthGenealogyProblem>>(
                spec, L == 1 ? pool : nullptr, current[l], liks.at(l),
                GrowthParams{driving.theta * dataset.locus(l).mutationScale, driving.growth}));
            slots.push_back({samplers[l].get(), &sinks[l], &monitors[l]});
        }
        const MultiLocusReport report =
            run.sample(em, std::move(slots), ticks / 10 + 1, ticks, driving.theta, seed);
        rec.seconds = estep.seconds();
        recordReport(rec, report);
        SamplerStats stats;
        for (const auto& s : samplers) stats += s->stats();
        rec.moveRate = stats.moveRate();

        // Pooled M-step over sum_l log L_l(mu_l theta, g).
        std::vector<PooledGrowthRelativeLikelihood::LocusTerm> terms;
        terms.reserve(L);
        for (std::size_t l = 0; l < L; ++l) {
            const Locus& locus = dataset.locus(l);
            current[l] = samplers[l]->continuation();
            terms.push_back({GrowthRelativeLikelihood(
                                 sinks[l].chainMajor(),
                                 GrowthParams{driving.theta * locus.mutationScale, driving.growth}),
                             locus.mutationScale, locus.name});
        }
        const PooledGrowthRelativeLikelihood rl(std::move(terms));
        const GrowthMleResult mle =
            maximizeGrowthParams(rl, driving, opts.growthLo, opts.growthHi, pool);
        driving = mle.params;
        rec.after = driving;
        rec.logLAtMax = mle.logL;
        result.history.push_back(rec);
        run.boundary(em);
    }

    result.params = driving;
    result.seconds = total.seconds();
    return result;
}

GrowthEstimateResult estimateThetaAndGrowth(const Alignment& aln,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool) {
    return estimateThetaAndGrowth(Dataset::single(aln), opts, pool);
}

}  // namespace mpcgs
