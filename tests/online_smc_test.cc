// Online SMC add-sequence move (src/smc/online_update.h): tripod
// attachment likelihoods must agree with full Felsenstein pruning on the
// explicitly grafted tree, an update must leave a normalized cloud whose
// cached likelihoods ARE the grafted trees' likelihoods, results must be
// bitwise invariant to the thread count and to the sharing of work among
// particles with equal trees, and the ESS-threshold boundaries
// (0.0 never / 1.0 always) must behave contractually for both the batch
// filter and the online refresh.
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "lik/felsenstein.h"
#include "lik/locus_likelihoods.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "smc/online_update.h"
#include "smc/smc_sampler.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

/// Simulated alignment of `tips` sequences (fixed seed per call site).
Alignment simAlignment(int tips, std::uint64_t seed, std::size_t length = 120) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(tips, 1.0, rng);
    SeqGenOptions so;
    so.length = length;
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, so, rng);
}

Alignment dropLast(const Alignment& full) {
    return Alignment(std::vector<Sequence>(full.sequences().begin(),
                                           full.sequences().end() - 1));
}

/// Reference graft: copy `t` into an (n+1)-tip arena with the standard id
/// remap (old internals shift up by one, new tip = n, join node = 2n) and
/// splice the new tip onto `attach` at height `h` — the same surgery
/// addSequence performs, built independently here from the public tree API.
Genealogy graftForTest(const Genealogy& t, NodeId attach, double h) {
    const int n = t.tipCount();
    Genealogy g(n + 1);
    const auto map = [n](NodeId id) { return id < n ? id : id + 1; };
    for (NodeId v = 0; v < t.nodeCount(); ++v) g.node(map(v)).time = t.node(v).time;
    const NodeId join = 2 * n;
    g.node(join).time = h;
    for (NodeId v = 0; v < t.nodeCount(); ++v) {
        const NodeId p = t.node(v).parent;
        if (p == kNoNode || v == attach) continue;
        g.link(map(p), map(v));
    }
    if (attach == t.root()) {
        g.link(join, map(t.root()));
        g.link(join, n);
        g.setRoot(join);
    } else {
        g.link(map(t.node(attach).parent), join);
        g.link(join, map(attach));
        g.link(join, n);
        g.setRoot(map(t.root()));
    }
    g.validate();
    return g;
}

/// The tripod score of attaching the alignment's last sequence to every
/// branch of `tree` at several interior heights, and to the root lineage at
/// several heights above the root, equals full pruning on the explicit
/// graft.
void expectTripodMatchesGraftEverywhere(const DataLikelihood& lik, const Genealogy& tree) {
    for (NodeId v = 0; v < tree.nodeCount(); ++v) {
        if (v == tree.root()) continue;
        const double lo = tree.node(v).time;
        const double hi = tree.node(tree.node(v).parent).time;
        for (const double f : {0.07, 0.5, 0.93}) {
            const double h = lo + f * (hi - lo);
            const double viaTripod = onlineAttachmentLogLik(lik, tree, v, h);
            const double viaFull = lik.logLikelihood(graftForTest(tree, v, h));
            EXPECT_NEAR(viaTripod, viaFull, 1e-9 * std::abs(viaFull))
                << "attach=" << v << " h=" << h;
        }
    }
    const double tRoot = tree.node(tree.root()).time;
    for (const double dh : {0.05, 0.6, 2.3}) {
        const double h = tRoot + dh;
        const double viaTripod = onlineAttachmentLogLik(lik, tree, tree.root(), h);
        const double viaFull = lik.logLikelihood(graftForTest(tree, tree.root(), h));
        EXPECT_NEAR(viaTripod, viaFull, 1e-9 * std::abs(viaFull)) << "root h=" << h;
    }
}

TEST(OnlineTripodTest, AttachmentLogLikMatchesExplicitGraftEverywhere) {
    const Alignment aln = simAlignment(5, 11);
    const auto model = makeInferenceModel("F81", aln);
    const DataLikelihood lik(aln, *model);

    Mt19937 rng(29);
    expectTripodMatchesGraftEverywhere(lik, simulateCoalescent(4, 1.0, rng));
}

TEST(OnlineTripodTest, GammaRatesAndAmbiguousNewSequenceMatchExplicitGraft) {
    // Four gamma categories exercise the cross-category sum of the site
    // pass; the new sequence carries gaps and ambiguity codes (all-ones tip
    // vectors), and the pattern count leaves a partial vector at the end
    // of every strip.
    const Alignment sim = simAlignment(6, 61, 150);
    std::vector<Sequence> seqs = sim.sequences();
    std::string last = seqs.back().toString();
    for (std::size_t i = 0; i < last.size(); ++i) {
        if (i % 7 == 3) last[i] = '-';
        else if (i % 11 == 5) last[i] = 'N';
        else if (i % 13 == 8) last[i] = 'R';
        else if (i % 17 == 2) last[i] = 'Y';
    }
    seqs.back() = Sequence::fromString(seqs.back().name(), last);
    const Alignment aln(std::move(seqs));
    const auto model = makeInferenceModel("F84", aln);
    const DataLikelihood lik(aln, *model, RateCategories::discreteGamma(0.5, 4));
    ASSERT_EQ(lik.rateCategories().count(), 4u);
    ASSERT_NE(lik.patternCount() % 8, 0u) << lik.patternCount();

    Mt19937 rng(67);
    expectTripodMatchesGraftEverywhere(lik, simulateCoalescent(5, 1.0, rng));
}

TEST(OnlineUpdateTest, AddSequenceCommitsExactLikelihoodsAndNormalizedWeights) {
    const Alignment full = simAlignment(6, 17);
    SmcOptions smc;
    smc.particles = 48;
    OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", 5);
    ASSERT_EQ(st.particles.size(), 48u);

    OnlineOptions oo;
    oo.essThreshold = 0.0;  // keep the reweighted cloud (no refresh)
    OnlineSmcUpdater updater(st, oo);
    const OnlineUpdateResult res = updater.addSequence(full.sequences().back());

    EXPECT_TRUE(std::isfinite(res.logZIncrement));
    EXPECT_FALSE(res.refreshed);
    EXPECT_EQ(st.updates, 1u);
    EXPECT_EQ(st.alignment.sequenceCount(), 6u);

    // Weights are normalized after the update.
    std::vector<double> logW;
    for (const OnlineParticle& p : st.particles) logW.push_back(p.logW);
    EXPECT_NEAR(logSumExp(std::span<const double>(logW)), 0.0, 1e-9);

    // Every committed particle is a valid 6-tip genealogy whose cached
    // logL IS the full-data Felsenstein likelihood of its tree — the
    // tripod score the proposal used, cross-checked against the
    // independent pruning engine.
    const auto model = makeInferenceModel("F81", st.alignment);
    const DataLikelihood lik(st.alignment, *model);
    for (const OnlineParticle& p : st.particles) {
        ASSERT_EQ(p.tree.tipCount(), 6);
        p.tree.validate();
        const double reference = lik.logLikelihood(p.tree);
        EXPECT_NEAR(p.logL, reference, 1e-7 * std::abs(reference));
    }
}

TEST(OnlineUpdateTest, UpdateIsBitwiseThreadCountInvariant) {
    // Three consecutive refreshing updates: after the first resample the
    // cloud holds copies, so the later updates score shared trees.
    const Alignment full = simAlignment(8, 23);
    constexpr std::size_t kAdds = 3;
    SmcOptions smc;
    smc.particles = 32;
    const OnlineState seedState = initOnlineState(
        Alignment(std::vector<Sequence>(full.sequences().begin(),
                                        full.sequences().end() - kAdds)),
        1.0, smc, "F81", 9);

    OnlineOptions oo;
    oo.essThreshold = 1.0;  // exercise the refresh + rejuvenation path too
    std::vector<OnlineState> states;
    std::vector<std::vector<OnlineUpdateResult>> results;
    // Width 0 is the pool-less serial path (pool == nullptr).
    for (const unsigned threads : {0u, 1u, 3u, 4u, 8u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        OnlineState st = seedState;
        results.emplace_back();
        for (std::size_t a = 0; a < kAdds; ++a) {
            OnlineSmcUpdater updater(st, oo, pool.get());
            results.back().push_back(
                updater.addSequence(full.sequences()[full.sequenceCount() - kAdds + a]));
        }
        states.push_back(std::move(st));
    }
    for (std::size_t i = 1; i < states.size(); ++i) {
        for (std::size_t a = 0; a < kAdds; ++a) {
            EXPECT_EQ(results[0][a].logZIncrement, results[i][a].logZIncrement);
            EXPECT_EQ(results[0][a].essFraction, results[i][a].essFraction);
            EXPECT_EQ(results[0][a].rejuvenationAccepts, results[i][a].rejuvenationAccepts);
        }
        EXPECT_EQ(states[0].logZ, states[i].logZ);
        ASSERT_EQ(states[0].particles.size(), states[i].particles.size());
        for (std::size_t p = 0; p < states[0].particles.size(); ++p) {
            EXPECT_EQ(states[0].particles[p].logW, states[i].particles[p].logW);
            EXPECT_EQ(states[0].particles[p].logL, states[i].particles[p].logL);
            EXPECT_EQ(states[0].particles[p].tree, states[i].particles[p].tree);
        }
    }
}

/// Particles whose trees share work inside one update must commit exactly
/// what each would commit alone: every particle of `cloud` is replayed as
/// a 1-particle state (same tree, logL and slot stream), which has nothing
/// to share.
void expectGroupedUpdateMatchesLoneParticles(const OnlineState& cloud, const Sequence& seq) {
    OnlineOptions oo;
    oo.essThreshold = 0.0;  // keep each particle in its slot (no resample)
    OnlineState st = cloud;
    OnlineSmcUpdater(st, oo).addSequence(seq);
    for (std::size_t p = 0; p < cloud.particles.size(); ++p) {
        OnlineState lone = cloud;
        lone.particles = {cloud.particles[p]};
        lone.particles[0].logW = 0.0;
        lone.slotRngs = {cloud.slotRngs[p]};
        OnlineSmcUpdater(lone, oo).addSequence(seq);
        EXPECT_EQ(st.particles[p].logL, lone.particles[0].logL) << "particle " << p;
        EXPECT_EQ(st.particles[p].tree, lone.particles[0].tree) << "particle " << p;
    }
}

/// `seedState` rebuilt as a cloud whose particle p carries the tree of
/// seedState's particle `source[p]` (with its logL), uniform weights and
/// its own slot stream.
OnlineState cloudOfCopies(const OnlineState& seedState, const std::vector<std::size_t>& source) {
    OnlineState st = seedState;
    st.particles.clear();
    st.slotRngs.clear();
    for (std::size_t p = 0; p < source.size(); ++p) {
        st.particles.push_back(seedState.particles[source[p]]);
        st.particles.back().logW = -std::log(static_cast<double>(source.size()));
        st.slotRngs.emplace_back(static_cast<std::uint32_t>(7000 + p));
    }
    return st;
}

TEST(OnlineUpdateTest, ParticlesSharingATreeCommitWhatEachWouldAlone) {
    const Alignment full = simAlignment(6, 53);
    SmcOptions smc;
    smc.particles = 32;
    const OnlineState seedState = initOnlineState(dropLast(full), 1.0, smc, "F81", 13);

    // Three distinct trees of the seed cloud.
    std::vector<std::size_t> distinct;
    for (std::size_t p = 0; p < seedState.particles.size() && distinct.size() < 3; ++p) {
        bool seen = false;
        for (const std::size_t q : distinct)
            seen = seen || seedState.particles[q].tree == seedState.particles[p].tree;
        if (!seen) distinct.push_back(p);
    }
    ASSERT_EQ(distinct.size(), 3u);

    // Every particle a copy of one tree.
    expectGroupedUpdateMatchesLoneParticles(
        cloudOfCopies(seedState, std::vector<std::size_t>(16, distinct[0])),
        full.sequences().back());

    // Groups of sizes 1, 3 and 20, interleaved so no group is contiguous.
    std::vector<std::size_t> mixed;
    for (std::size_t i = 0; i < 24; ++i) {
        const bool single = i == 11;
        const bool triple = i % 8 == 2;
        mixed.push_back(single ? distinct[0] : (triple ? distinct[1] : distinct[2]));
    }
    expectGroupedUpdateMatchesLoneParticles(cloudOfCopies(seedState, mixed),
                                            full.sequences().back());
}

/// Exact log P(D | theta) for n = 3 by brute force: sum over the 3
/// labelled first pairs and midpoint quadrature over (t3, t2) — the same
/// reference smc_test.cc validates the batch filter against.
double exactLogMarginalThreeTips(const DataLikelihood& lik, const Alignment& aln,
                                 double theta) {
    const int grid = 120;
    const double t3Max = 6.0 * theta;
    const double t2Max = 15.0 * theta;
    const double h3 = t3Max / grid;
    const double h2 = t2Max / grid;
    std::vector<double> logVals;
    logVals.reserve(3 * grid * grid);
    for (int pair = 0; pair < 3; ++pair) {
        const int a = pair == 0 ? 0 : (pair == 1 ? 0 : 1);
        const int b = pair == 0 ? 1 : 2;
        const int c = pair == 0 ? 2 : (pair == 1 ? 1 : 0);
        Genealogy g(3);
        g.setTipNames(aln.names());
        g.link(3, a);
        g.link(3, b);
        g.link(4, 3);
        g.link(4, c);
        g.setRoot(4);
        for (int i = 0; i < grid; ++i) {
            const double t3 = (i + 0.5) * h3;
            for (int j = 0; j < grid; ++j) {
                const double t2 = (j + 0.5) * h2;
                g.node(3).time = t3;
                g.node(4).time = t3 + t2;
                logVals.push_back(logCoalescentWaitDensity(3, t3, theta) +
                                  logCoalescentWaitDensity(2, t2, theta) +
                                  lik.logLikelihoodReference(g));
            }
        }
    }
    return logSumExp(std::span<const double>(logVals)) + std::log(h3 * h2);
}

TEST(OnlineUpdateTest, ReweightMathMatchesBruteForceQuadratureOnThreeTips) {
    // A 2-tip warm posterior extended online by a 3rd sequence estimates
    // log P(D_3 | theta). The estimator stays unbiased in Z only if the
    // reweight delta uses the EXACT proposal densities (branch softmax and
    // height draw) and prior ratio, so pooling independent replicates must
    // reproduce the brute-force 3-tip marginal. Any density error shifts
    // this mean.
    const Alignment full = simAlignment(3, 101, 80);
    SmcOptions smc;
    smc.particles = 4096;
    std::vector<double> logZs;
    for (const std::uint64_t seed : {201ull, 202ull, 203ull, 204ull}) {
        OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", seed);
        OnlineOptions oo;
        oo.essThreshold = 0.0;  // the raw reweighted estimator, no refresh
        OnlineSmcUpdater updater(st, oo);
        updater.addSequence(full.sequences().back());
        logZs.push_back(st.logZ);
    }
    const double pooled = logSumExp(std::span<const double>(logZs)) -
                          std::log(static_cast<double>(logZs.size()));

    const auto model = makeInferenceModel("F81", full);
    const DataLikelihood lik(full, *model);
    const double exact = exactLogMarginalThreeTips(lik, full, 1.0);
    // Quadrature discretization + Monte-Carlo error across 4 x 4096
    // particles (offline: |diff| well under 0.05).
    EXPECT_NEAR(pooled, exact, 0.15);
}

TEST(OnlineUpdateTest, OnlineLogZAgreesWithColdStartToMonteCarloPrecision) {
    const Alignment full = simAlignment(6, 31);
    SmcOptions smc;
    smc.particles = 512;

    // Warm path: posterior over the first 5 sequences, then one online
    // add-sequence update.
    OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", 41);
    OnlineOptions oo;
    OnlineSmcUpdater updater(st, oo);
    updater.addSequence(full.sequences().back());

    // Cold path: a fresh 6-sequence filter pass (independent seed). Both
    // logZ values estimate the same log P(D_6 | theta); they agree to
    // Monte-Carlo precision, not bitwise.
    const auto model = makeInferenceModel("F81", full);
    const DataLikelihood lik(full, *model);
    const SmcPassResult cold = runSmcPass(lik, 1.0, smc, 97);

    EXPECT_TRUE(std::isfinite(st.logZ));
    EXPECT_NEAR(st.logZ, cold.logZ, 12.0);
    const double theta = onlineThetaEstimate(st);
    EXPECT_GT(theta, 0.0);
    EXPECT_TRUE(std::isfinite(theta));
    EXPECT_GT(onlineEssFraction(st), 0.0);
}

TEST(EssThresholdBoundaryTest, BatchFilterHonorsTheContractAtBothBoundaries) {
    const Alignment aln = simAlignment(6, 43);
    const auto model = makeInferenceModel("F81", aln);
    const DataLikelihood lik(aln, *model);

    SmcOptions smc;
    smc.particles = 64;

    // 0.0: never resample. ESS can reach 1, but the trigger is disabled.
    smc.essThreshold = 0.0;
    EXPECT_EQ(runSmcPass(lik, 1.0, smc, 7).resamples, 0u);

    // 1.0: resample on EVERY step (n-1 coalescences, last step excluded),
    // even when the cloud is exactly uniform (ESS == N) — the regression
    // this contract exists for.
    smc.essThreshold = 1.0;
    EXPECT_EQ(runSmcPass(lik, 1.0, smc, 7).resamples,
              static_cast<std::size_t>(aln.sequenceCount()) - 2);

    // Interior threshold: bounded by the two boundaries.
    smc.essThreshold = 0.5;
    const std::size_t mid = runSmcPass(lik, 1.0, smc, 7).resamples;
    EXPECT_LE(mid, static_cast<std::size_t>(aln.sequenceCount()) - 2);
}

TEST(EssThresholdBoundaryTest, OnlineRefreshHonorsTheContractAtBothBoundaries) {
    const Alignment full = simAlignment(6, 47);
    SmcOptions smc;
    smc.particles = 32;
    const OnlineState seedState = initOnlineState(dropLast(full), 1.0, smc, "F81", 3);

    {
        OnlineState st = seedState;
        OnlineOptions oo;
        oo.essThreshold = 0.0;
        OnlineSmcUpdater updater(st, oo);
        EXPECT_FALSE(updater.addSequence(full.sequences().back()).refreshed);
    }
    {
        OnlineState st = seedState;
        OnlineOptions oo;
        oo.essThreshold = 1.0;
        OnlineSmcUpdater updater(st, oo);
        const OnlineUpdateResult res = updater.addSequence(full.sequences().back());
        EXPECT_TRUE(res.refreshed);
        // After a refresh the weights are uniform: ESS/N == 1.
        EXPECT_NEAR(onlineEssFraction(st), 1.0, 1e-12);
    }
}

}  // namespace
}  // namespace mpcgs
