#include "coalescent/growth.h"

#include <cmath>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/growth_estimator.h"
#include "core/posterior.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/dataset.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"
#include "util/stats.h"

namespace mpcgs {
namespace {

std::vector<CoalInterval> sampleIntervals() {
    return {{0.0, 0.1, 4}, {0.1, 0.35, 3}, {0.35, 1.2, 2}};
}

TEST(GrowthPrior, ZeroGrowthEqualsConstantSizePrior) {
    const auto ivs = sampleIntervals();
    for (const double theta : {0.3, 1.0, 4.0}) {
        EXPECT_NEAR(logGrowthCoalescentPrior(ivs, {theta, 0.0}),
                    logCoalescentPrior(ivs, theta), 1e-9);
    }
}

TEST(GrowthPrior, TinyGrowthIsContinuous) {
    const auto ivs = sampleIntervals();
    const double atZero = logGrowthCoalescentPrior(ivs, {1.0, 0.0});
    const double nearZero = logGrowthCoalescentPrior(ivs, {1.0, 1e-9});
    EXPECT_NEAR(atZero, nearZero, 1e-6);
}

TEST(GrowthPrior, HandComputedSingleInterval) {
    // One pair coalescing at time b under growth g:
    // log p = log(2/theta) + g b - 2 (e^{g b} - 1) / (g theta).
    const std::vector<CoalInterval> ivs{{0.0, 0.5, 2}};
    const double theta = 1.5, g = 2.0, b = 0.5;
    const double expect =
        std::log(2.0 / theta) + g * b - 2.0 * (std::exp(g * b) - 1.0) / (g * theta);
    EXPECT_NEAR(logGrowthCoalescentPrior(ivs, {theta, g}), expect, 1e-12);
}

TEST(GrowthSimulator, ZeroGrowthMatchesConstantSizeMoments) {
    Mt19937 rng(61);
    const double theta = 1.0;
    RunningStats growth0, constant;
    for (int r = 0; r < 20000; ++r) {
        growth0.add(simulateGrowthCoalescent(5, {theta, 0.0}, rng).tmrca());
        constant.add(simulateCoalescent(5, theta, rng).tmrca());
    }
    EXPECT_NEAR(growth0.mean(), constant.mean(), 0.03);
}

TEST(GrowthSimulator, GrowthShortensTrees) {
    // Growing populations (small in the past) coalesce faster.
    Mt19937 rng(62);
    RunningStats flat, growing;
    for (int r = 0; r < 8000; ++r) {
        flat.add(simulateGrowthCoalescent(6, {1.0, 0.0}, rng).tmrca());
        growing.add(simulateGrowthCoalescent(6, {1.0, 5.0}, rng).tmrca());
    }
    EXPECT_LT(growing.mean(), flat.mean());
}

TEST(GrowthSimulator, TreesAreValid) {
    Mt19937 rng(63);
    for (int r = 0; r < 50; ++r) {
        const Genealogy g = simulateGrowthCoalescent(8, {0.5, 3.0}, rng);
        EXPECT_NO_THROW(g.validate());
        EXPECT_EQ(g.tipCount(), 8);
    }
}

TEST(GrowthSimulator, ConsistentWithDensity) {
    // Average log-density of simulated trees is higher at the generating
    // parameters than at wrong ones (a generator/density consistency probe).
    Mt19937 rng(64);
    const GrowthParams truth{1.0, 4.0};
    RunningStats atTruth, wrongGrowth, wrongTheta;
    for (int r = 0; r < 4000; ++r) {
        const Genealogy g = simulateGrowthCoalescent(6, truth, rng);
        const auto ivs = g.intervals();
        atTruth.add(logGrowthCoalescentPrior(ivs, truth));
        wrongGrowth.add(logGrowthCoalescentPrior(ivs, {1.0, 0.0}));
        wrongTheta.add(logGrowthCoalescentPrior(ivs, {8.0, 4.0}));
    }
    EXPECT_GT(atTruth.mean(), wrongGrowth.mean());
    EXPECT_GT(atTruth.mean(), wrongTheta.mean());
}

TEST(GrowthSimulator, RejectsBadArguments) {
    Mt19937 rng(65);
    EXPECT_THROW(simulateGrowthCoalescent(1, {1.0, 0.0}, rng), ConfigError);
    EXPECT_THROW(simulateGrowthCoalescent(4, {0.0, 0.0}, rng), ConfigError);
    EXPECT_THROW(simulateGrowthCoalescent(4, {1.0, -1.0}, rng), ConfigError);
}

TEST(GrowthRelativeLikelihoodTest, DrivingPointIsZero) {
    Mt19937 rng(66);
    std::vector<std::vector<CoalInterval>> samples;
    for (int r = 0; r < 200; ++r)
        samples.push_back(simulateGrowthCoalescent(5, {1.0, 2.0}, rng).intervals());
    const GrowthParams driving{1.0, 2.0};
    const GrowthRelativeLikelihood rl(std::move(samples), driving);
    EXPECT_NEAR(rl.logL(driving), 0.0, 1e-12);
}

TEST(GrowthRelativeLikelihoodTest, ReducesToThetaOnlyCurveAtZeroGrowth) {
    Mt19937 rng(67);
    std::vector<std::vector<CoalInterval>> samples;
    for (int r = 0; r < 300; ++r)
        samples.push_back(simulateCoalescent(5, 1.0, rng).intervals());
    const GrowthRelativeLikelihood rl(samples, {1.0, 0.0});
    // Against the constant-size RelativeLikelihood over the same samples.
    std::vector<IntervalSummary> summaries;
    for (const auto& ivs : samples) summaries.push_back(IntervalSummary::fromIntervals(ivs));
    const RelativeLikelihood flat(summaries, 1.0);
    for (const double theta : {0.4, 1.0, 2.5})
        EXPECT_NEAR(rl.logL({theta, 0.0}), flat.logL(theta), 1e-9);
}

TEST(GrowthMle, RecoversConcentratedSurfacePeak) {
    // Posterior-like (concentrated) sample set: one genealogy at a few
    // nearby scales. The surface is then a smooth unimodal function of
    // (theta, g), and coordinate ascent must match a reference grid scan.
    // (Prior samples driven at the truth would give a flat-in-expectation
    // Eq. 26 surface whose empirical maximum is pure noise.)
    Mt19937 rng(68);
    const GrowthParams truth{1.0, 3.0};
    const Genealogy base = simulateGrowthCoalescent(8, truth, rng);
    std::vector<std::vector<CoalInterval>> samples;
    for (int r = 0; r < 40; ++r) {
        Genealogy jittered = base;
        jittered.scaleTimes(0.96 + 0.002 * r);
        samples.push_back(jittered.intervals());
    }
    const GrowthRelativeLikelihood rl(std::move(samples), truth);
    const GrowthMleResult mle = maximizeGrowthParams(rl, {0.3, 0.0}, 0.0, 12.0);
    double gridBest = -1e300;
    for (double lt = -1.5; lt <= 1.5; lt += 0.05)
        for (double g = 0.0; g <= 12.0; g += 0.25)
            gridBest = std::max(gridBest, rl.logL({std::exp(lt), g}));
    EXPECT_GE(mle.logL, gridBest - 0.05);
}

TEST(GrowthEstimation, EndToEndRecoversSaneParameters) {
    // Full pipeline: growing population, joint estimate. Growth is hard to
    // pin down from one locus, so the criterion is coarse: growth detected
    // (g-hat above zero) and theta within an order of magnitude.
    Mt19937 rng(69);
    const GrowthParams truth{1.0, 6.0};
    const Genealogy tree = simulateGrowthCoalescent(10, truth, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(tree, *model, {500, 1.0}, rng);

    GrowthEstimateOptions opts;
    opts.driving = {0.5, 0.0};
    opts.emIterations = 4;
    opts.samplesPerIteration = 2500;
    opts.seed = 70;
    opts.growthHi = 30.0;
    ThreadPool pool(4);
    const GrowthEstimateResult res = estimateThetaAndGrowth(data, opts, &pool);
    EXPECT_GT(res.params.theta, 0.05);
    EXPECT_LT(res.params.theta, 20.0);
    EXPECT_GE(res.params.growth, 0.0);
    EXPECT_EQ(res.history.size(), 4u);
}

/// A short growth-model alignment for the option and pool tests.
Alignment growthAlignment(std::uint64_t seed) {
    Mt19937 rng(seed);
    const Genealogy tree = simulateGrowthCoalescent(6, {1.0, 3.0}, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(tree, *model, {150, 1.0}, rng);
}

GrowthEstimateOptions quickGrowthOptions() {
    GrowthEstimateOptions opts;
    opts.driving = {0.8, 0.0};
    opts.emIterations = 2;
    opts.samplesPerIteration = 160;
    opts.gmhProposals = 8;
    opts.seed = 71;
    return opts;
}

TEST(GrowthEstimation, RejectsInvalidOptions) {
    const Alignment data = growthAlignment(72);
    GrowthEstimateOptions o = quickGrowthOptions();
    o.emIterations = 0;
    EXPECT_THROW(estimateThetaAndGrowth(data, o), ConfigError);
    o = quickGrowthOptions();
    o.samplesPerIteration = 0;
    EXPECT_THROW(estimateThetaAndGrowth(data, o), ConfigError);
    o = quickGrowthOptions();
    o.gmhProposals = 0;
    EXPECT_THROW(estimateThetaAndGrowth(data, o), ConfigError);
    for (const double theta : {0.0, -1.0}) {
        o = quickGrowthOptions();
        o.driving.theta = theta;
        EXPECT_THROW(estimateThetaAndGrowth(data, o), ConfigError);
    }
    for (const double lo : {20.0, 25.0}) {
        o = quickGrowthOptions();
        o.growthLo = lo;
        o.growthHi = 20.0;
        EXPECT_THROW(estimateThetaAndGrowth(data, o), ConfigError);
    }
}

TEST(GrowthEstimation, ResultsAreBitwiseInvariantToThePool) {
    // L = 1 runs the GMH fan-out on the pool; L = 2 the loci axis.
    Dataset ds;
    ds.add(Locus{"a", growthAlignment(73), 1.0, {}});
    ThreadPool pool(4);
    for (int L = 1; L <= 2; ++L) {
        if (L == 2) ds.add(Locus{"b", growthAlignment(74), 1.5, {}});
        const GrowthEstimateResult serial = estimateThetaAndGrowth(ds, quickGrowthOptions());
        const GrowthEstimateResult pooled =
            estimateThetaAndGrowth(ds, quickGrowthOptions(), &pool);
        EXPECT_EQ(serial.params.theta, pooled.params.theta) << "L = " << L;
        EXPECT_EQ(serial.params.growth, pooled.params.growth) << "L = " << L;
        ASSERT_EQ(serial.history.size(), pooled.history.size());
        for (std::size_t i = 0; i < serial.history.size(); ++i) {
            EXPECT_EQ(serial.history[i].after.theta, pooled.history[i].after.theta);
            EXPECT_EQ(serial.history[i].after.growth, pooled.history[i].after.growth);
            EXPECT_EQ(serial.history[i].logLAtMax, pooled.history[i].logLAtMax);
            EXPECT_EQ(serial.history[i].moveRate, pooled.history[i].moveRate);
            EXPECT_EQ(serial.history[i].samples, 160u * L);
        }
    }
}

}  // namespace
}  // namespace mpcgs
