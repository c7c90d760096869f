// Likelihood backend contract: batching is a SCHEDULING choice, never a
// numeric one. Tests pin (1) bitwise agreement of the backend with the
// ForestEvaluator reference on raw operation sequences, with combines
// split across pattern blocks, serial and pooled, (2) bitwise
// thread-count invariance of full SMC passes (logZ, sampled genealogy,
// resampling trajectory) under resampling pressure and rate
// heterogeneity, and (3) the batch statistics in the metrics registry.
#include "lik/lik_backend.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "lik/forest_eval.h"
#include "lik/rate_model.h"
#include "obs/metrics.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/smc_sampler.h"

namespace mpcgs {
namespace {

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

/// Drive `backend` through a random forest-building schedule (tips, then
/// pairwise combines with the schedule's branch lengths) using ONE flush
/// for the tips and one per combine generation, and return every live
/// root's log-likelihood.
std::vector<double> buildForest(LikelihoodBackend& backend, int tips, Mt19937& rng,
                                ThreadPool* pool) {
    backend.resizeSlots(static_cast<std::size_t>(2 * tips - 1));
    std::vector<LikelihoodBackend::Slot> live;
    std::vector<double> logL(static_cast<std::size_t>(2 * tips - 1));
    for (int t = 0; t < tips; ++t) {
        backend.tipInit(t, t);
        backend.rootLogLik(t, &logL[t]);
        live.push_back(t);
    }
    backend.flush(pool);
    LikelihoodBackend::Slot next = tips;
    while (live.size() > 1) {
        const std::size_t a = static_cast<std::size_t>(rng.below(live.size()));
        std::size_t b = static_cast<std::size_t>(rng.below(live.size() - 1));
        if (b >= a) ++b;
        const double lenA = 0.01 + 0.3 * rng.uniform01();
        const double lenB = 0.01 + 0.3 * rng.uniform01();
        backend.combine(next, live[a], lenA, live[b], lenB);
        backend.rootLogLik(next, &logL[next]);
        backend.flush(pool);
        live[a] = next;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
        ++next;
    }
    logL.resize(next);
    return logL;
}

/// Replay the schedule buildForest draws from `rng` on the reference
/// evaluator, returning every node's root logL and partials.
std::vector<double> buildForestReference(const ForestEvaluator& eval, int tips,
                                         Mt19937& rng, std::vector<SubtreePartials>& parts) {
    parts.assign(static_cast<std::size_t>(2 * tips - 1), {});
    std::vector<double> logL(parts.size());
    std::vector<std::size_t> live;
    for (int t = 0; t < tips; ++t) {
        parts[t] = eval.tipPartials(t);
        logL[t] = eval.rootLogLikelihood(parts[t]);
        live.push_back(static_cast<std::size_t>(t));
    }
    std::size_t next = static_cast<std::size_t>(tips);
    while (live.size() > 1) {
        const std::size_t a = static_cast<std::size_t>(rng.below(live.size()));
        std::size_t b = static_cast<std::size_t>(rng.below(live.size() - 1));
        if (b >= a) ++b;
        const double lenA = 0.01 + 0.3 * rng.uniform01();
        const double lenB = 0.01 + 0.3 * rng.uniform01();
        eval.combine(parts[live[a]], lenA, parts[live[b]], lenB, parts[next]);
        logL[next] = eval.rootLogLikelihood(parts[next]);
        live[a] = next;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
        ++next;
    }
    return logL;
}

/// The backend against the one-operation-at-a-time oracle on an alignment
/// wide enough that every combine splits across pattern blocks, serial and
/// on pools of several widths, with and without rate heterogeneity: every
/// root logL and every slot's partials and scales must match bitwise.
TEST(LikBackendTest, MatchesForestEvaluatorBitwiseAcrossPatternBlocks) {
    const int tips = 7;
    const Alignment aln = simulateData(tips, 2.0, 2000, 11);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        const DataLikelihood lik =
            gamma ? DataLikelihood(aln, model, RateCategories::discreteGamma(0.6, 4))
                  : DataLikelihood(aln, model);
        // The backend's combine launch cuts 256-pattern blocks; more than
        // one block per combine is the case under test.
        ASSERT_GT(lik.patternCount(), 256u);
        ASSERT_EQ(lik.rateCategories().count(), gamma ? 4u : 1u);

        const ForestEvaluator eval(lik);
        Mt19937 scheduleRng(99);
        std::vector<SubtreePartials> parts;
        const std::vector<double> ref = buildForestReference(eval, tips, scheduleRng, parts);

        for (const unsigned width : {0u, 1u, 3u, 4u}) {  // 0: flush(nullptr)
            std::unique_ptr<ThreadPool> pool;
            if (width > 0) pool = std::make_unique<ThreadPool>(width);
            LikelihoodBackend backend(lik);
            scheduleRng = Mt19937(99);
            const std::vector<double> got = buildForest(backend, tips, scheduleRng, pool.get());
            const std::string where =
                std::string(gamma ? "gamma, " : "") + "pool width " + std::to_string(width);
            ASSERT_EQ(got.size(), ref.size()) << where;
            for (std::size_t s = 0; s < ref.size(); ++s) {
                EXPECT_EQ(std::memcmp(&got[s], &ref[s], sizeof(double)), 0)
                    << "root logL of slot " << s << ", " << where;
                const auto data = backend.slotData(static_cast<LikelihoodBackend::Slot>(s));
                const auto scale = backend.slotScale(static_cast<LikelihoodBackend::Slot>(s));
                ASSERT_EQ(data.size(), parts[s].data.size());
                ASSERT_EQ(scale.size(), parts[s].scaleLog.size());
                EXPECT_EQ(std::memcmp(data.data(), parts[s].data.data(),
                                      data.size() * sizeof(double)),
                          0)
                    << "partials of slot " << s << ", " << where;
                EXPECT_EQ(std::memcmp(scale.data(), parts[s].scaleLog.data(),
                                      scale.size() * sizeof(double)),
                          0)
                    << "scales of slot " << s << ", " << where;
            }
        }
    }
}

/// Full-pass thread invariance on a config with real resampling pressure
/// (essThreshold 1.0 = resample every step, the path that exercises the
/// Kahn-ordered slot copies and cycle staging), with and without rate
/// heterogeneity.
TEST(LikBackendTest, SmcPassBitwiseInvariantAcrossThreads) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        const DataLikelihood lik =
            gamma ? DataLikelihood(aln, model, RateCategories::discreteGamma(0.7, 4))
                  : DataLikelihood(aln, model);
        for (const auto scheme :
             {ResamplingScheme::Systematic, ResamplingScheme::Multinomial}) {
            SmcOptions opts;
            opts.particles = 96;
            opts.scheme = scheme;
            opts.essThreshold = 1.0;
            const SmcPassResult ref = runSmcPass(lik, 1.0, opts, 4711);

            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                ThreadPool pool(threads);
                const SmcPassResult res = runSmcPass(lik, 1.0, opts, 4711, &pool);
                EXPECT_EQ(std::memcmp(&res.logZ, &ref.logZ, sizeof(double)), 0)
                    << threads << " threads";
                EXPECT_EQ(std::memcmp(&res.sampledLogPosterior, &ref.sampledLogPosterior,
                                      sizeof(double)),
                          0)
                    << threads << " threads";
                EXPECT_EQ(res.sampled, ref.sampled) << threads << " threads";
                EXPECT_EQ(res.resamples, ref.resamples);
                EXPECT_EQ(
                    std::memcmp(&res.minEssFraction, &ref.minEssFraction, sizeof(double)),
                    0);
            }
        }
    }
}

TEST(LikBackendTest, BatchStatsRecordSharing) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    // Execution counters live in the metrics registry (lik.* taxonomy) —
    // backends keep no private stats copy.
    obs::reset();
    obs::arm();

    SmcOptions opts;
    opts.particles = 128;
    runSmcPass(lik, 1.0, opts, 47);
    const obs::MetricsSnapshot snap = obs::snapshot();
    // One flush per generation plus the tip batch.
    EXPECT_EQ(snap.counter(obs::Counter::LikFlushes), 8u);  // 1 tip + 7 events
    EXPECT_EQ(snap.counter(obs::Counter::LikCombineOps), 7u * 128u);
    // Matrix sharing: a naive execution exponentiates 2 matrices per
    // combine per category (lik.matrices_requested counts exactly that);
    // the batch must do strictly better (equal lengths dedupe within a
    // generation).
    EXPECT_EQ(snap.counter(obs::Counter::LikMatricesRequested),
              7u * 128u * 2u * lik.rateCategories().count());
    EXPECT_GT(snap.counter(obs::Counter::LikMatricesComputed), 0u);
    EXPECT_LT(snap.counter(obs::Counter::LikMatricesComputed),
              snap.counter(obs::Counter::LikMatricesRequested));

    obs::disarm();
    obs::reset();
}

}  // namespace
}  // namespace mpcgs
