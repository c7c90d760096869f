// Scalar-vs-vectorized agreement suite: the pattern-major engine's stateless
// full-recomputation path must reproduce the original one-pattern-at-a-time
// scalar pruning to 1e-10, across random genealogies/alignments,
// rescaling-triggering deep trees, unknown-tip marginalization, and rate
// heterogeneity — and the serial MH chain must make the same accept/reject
// decisions as a replay evaluated with the scalar reference. The GMH
// frontier overlay must equal the stateless path exactly (EXPECT_EQ on
// doubles) for every proposal of a region, from any number of threads.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "lik/felsenstein.h"
#include "mcmc/mh.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"

namespace mpcgs {
namespace {

/// Random dataset with a sprinkling of unknown sites (every `nEvery`-th
/// site of every `sEvery`-th sequence becomes N).
Alignment randomData(int n, std::size_t length, unsigned seed, std::size_t nEvery = 0,
                     std::size_t sEvery = 3) {
    Mt19937 rng(seed);
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    Alignment aln = simulateSequences(truth, *gen, {length, 1.0}, rng);
    if (nEvery == 0) return aln;
    std::vector<Sequence> seqs;
    for (std::size_t s = 0; s < aln.sequenceCount(); ++s) {
        std::string chars = aln.sequence(s).toString();
        if (s % sEvery == 0)
            for (std::size_t i = 0; i < chars.size(); i += nEvery) chars[i] = 'N';
        seqs.push_back(Sequence::fromString(aln.sequence(s).name(), chars));
    }
    return Alignment(std::move(seqs));
}

TEST(EngineAgreement, RandomGenealogiesMatchScalarReference) {
    for (const unsigned seed : {11u, 12u, 13u, 14u}) {
        Mt19937 rng(seed);
        const int n = 4 + static_cast<int>(seed % 3) * 6;  // 4..16 tips
        const Alignment data = randomData(n, 300, seed, /*nEvery=*/7);
        const auto model = makeHky85(2.0, data.baseFrequencies());
        const DataLikelihood lik(data, *model);
        for (int rep = 0; rep < 5; ++rep) {
            const Genealogy g = simulateCoalescent(n, 1.0, rng);
            const double ref = lik.logLikelihoodReference(g);
            EXPECT_NEAR(lik.logLikelihood(g), ref, 1e-10) << "seed " << seed << " rep " << rep;
        }
    }
}

TEST(EngineAgreement, UncompressedPatternsMatchToo) {
    Mt19937 rng(21);
    const Alignment data = randomData(8, 200, 21, /*nEvery=*/5);
    const auto model = makeF84(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::uniformRate(), /*compress=*/false);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    EXPECT_NEAR(lik.logLikelihood(g), lik.logLikelihoodReference(g), 1e-10);
}

TEST(EngineAgreement, DeepCaterpillarTriggersRescaling) {
    // 48 levels of pruning with long branches: the periodic K-level
    // rescaling must agree with the scalar path's per-node threshold
    // rescaling (both are exact reparameterizations).
    const int n = 48;
    Genealogy g(n);
    NodeId prev = 0;
    for (int i = 0; i < n - 1; ++i) {
        const NodeId internal = n + i;
        g.node(internal).time = 3.0 * (i + 1);
        g.link(internal, prev);
        g.link(internal, i + 1);
        prev = internal;
    }
    g.setRoot(prev);
    g.validate();

    std::vector<Sequence> seqs;
    for (int i = 0; i < n; ++i)
        seqs.push_back(Sequence::fromString("s" + std::to_string(i),
                                            i % 3 ? "ACGTACGT" : "TGCANGCA"));
    const Alignment aln{std::move(seqs)};
    const F81Model model(kUniformFreqs, 1.0);
    const DataLikelihood lik(aln, model);
    const double ref = lik.logLikelihoodReference(g);
    ASSERT_TRUE(std::isfinite(ref));
    EXPECT_NEAR(lik.logLikelihood(g), ref, 1e-10);
}

TEST(EngineAgreement, GammaCategoriesMatchScalarReference) {
    Mt19937 rng(31);
    const Alignment data = randomData(10, 240, 31, /*nEvery=*/9);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::discreteGamma(0.6, 4));
    for (int rep = 0; rep < 3; ++rep) {
        const Genealogy g = simulateCoalescent(10, 1.0, rng);
        EXPECT_NEAR(lik.logLikelihood(g), lik.logLikelihoodReference(g), 1e-10) << rep;
    }
}

TEST(EngineAgreement, PooledEvaluationIsBitwiseIdenticalToSerial) {
    // The pattern-block partition depends only on the problem shape, so
    // parallel evaluation must be bit-identical to serial, not just close.
    Mt19937 rng(51);
    const Genealogy g = simulateCoalescent(14, 1.0, rng);
    const Alignment data = randomData(14, 500, 51);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    ThreadPool pool(5);

    EXPECT_EQ(lik.logLikelihood(g), lik.logLikelihood(g, &pool));
}

TEST(EngineAgreement, MhChainAcceptSequenceMatchesScalarReplay) {
    // The serial MH chain (vectorized engine) against a hand-rolled replica
    // driven by the same RNG stream but evaluating every state with the
    // scalar reference path: every accept/reject decision must match.
    Mt19937 rng(61);
    const int n = 10;
    const double theta = 1.0;
    const Alignment data = randomData(n, 200, 61);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Genealogy init = simulateCoalescent(n, theta, rng);
    init.setTipNames(data.names());

    const std::uint64_t seed = 977;
    const MhGenealogyProblem problem(lik, theta);
    MhChain<MhGenealogyProblem> chain(problem, init, seed);

    Mt19937 replayRng(static_cast<std::uint32_t>(seed ^ (seed >> 32)));
    Genealogy cur = init;
    double curLik = lik.logLikelihoodReference(cur);

    for (int i = 0; i < 300; ++i) {
        auto prop = proposeRecoalesce(cur, theta, replayRng);
        const double newLik = lik.logLikelihoodReference(prop.state);
        const double logR = (newLik + logCoalescentPrior(prop.state, theta)) -
                            (curLik + logCoalescentPrior(cur, theta)) + prop.logReverse -
                            prop.logForward;
        const bool refAccept = logR >= 0.0 || std::log(replayRng.uniformPos()) < logR;
        const bool accept = chain.step();
        ASSERT_EQ(accept, refAccept) << "diverged at step " << i;
        if (refAccept) {
            cur = std::move(prop.state);
            curLik = newLik;
        }
    }
    EXPECT_NEAR(chain.currentLogPosterior(), curLik + logCoalescentPrior(cur, theta), 1e-8);
    EXPECT_EQ(chain.current(), cur);
}


// --- GMH frontier overlay ---------------------------------------------------

/// Capture the generator's frontier for `regions` regions and overlay every
/// proposal drawn in each; returns how many overlays (generator included)
/// differed from logLikelihood in any bit. The generator walks to the last
/// proposal of each set, so later regions see varied trees. With
/// `rootParent`, every target is a child of the root (P is the root).
int overlayMismatches(const DataLikelihood& lik, Genealogy g, int regions, int proposals,
                      unsigned seed, bool rootParent = false) {
    Mt19937 rng(seed);
    PathFrontier f;
    int bad = 0;
    for (int r = 0; r < regions; ++r) {
        NeighborhoodRegion region;
        if (rootParent) {
            const TreeNode& root = g.node(g.root());
            const NodeId target = g.isTip(root.child[0]) ? root.child[1] : root.child[0];
            if (g.isTip(target)) return -1;  // both root children are tips
            region = makeNeighborhoodRegion(g, target, 1.0);
        } else {
            region = makeNeighborhoodRegion(g, 1.0, rng);
        }
        lik.engine().captureFrontier(g, region.target, f);
        if (lik.engine().overlayLogLikelihood(f, g) != lik.logLikelihood(g)) ++bad;
        for (int p = 0; p < proposals; ++p) {
            Genealogy prop = proposeInNeighborhood(region, rng);
            if (lik.engine().overlayLogLikelihood(f, prop) != lik.logLikelihood(prop)) ++bad;
            if (p + 1 == proposals) g = std::move(prop);
        }
    }
    return bad;
}

TEST(EngineAgreement, OverlayEqualsStatelessOnRandomTrees) {
    for (const unsigned seed : {81u, 82u, 83u, 84u}) {
        Mt19937 rng(seed);
        const Alignment data = randomData(12, 400, seed, /*nEvery=*/11);
        const auto model = makeHky85(2.0, data.baseFrequencies());
        const DataLikelihood lik(data, *model);
        const Genealogy g = simulateCoalescent(12, 1.0, rng);
        EXPECT_EQ(overlayMismatches(lik, g, 60, 32, seed), 0) << "seed " << seed;
    }
}

TEST(EngineAgreement, OverlayEqualsStatelessWhenParentIsRoot) {
    for (const unsigned seed : {91u, 92u, 93u}) {
        Mt19937 rng(seed);
        const Alignment data = randomData(12, 300, seed);
        const F81Model model(data.baseFrequencies());
        const DataLikelihood lik(data, model);
        Genealogy g = simulateCoalescent(12, 1.0, rng);
        // Redraw until a root child is internal (almost always at once).
        while (g.isTip(g.node(g.root()).child[0]) && g.isTip(g.node(g.root()).child[1]))
            g = simulateCoalescent(12, 1.0, rng);
        EXPECT_EQ(overlayMismatches(lik, g, 30, 32, seed, /*rootParent=*/true), 0)
            << "seed " << seed;
    }
}

TEST(EngineAgreement, OverlayEqualsStatelessOnDeepCaterpillar) {
    // The rescaling tree: 48 pruning levels, so path nodes and frontier
    // strips both carry scale exponents and the rescale schedule moves with
    // the proposal's levels.
    const int n = 48;
    Genealogy g(n);
    NodeId prev = 0;
    for (int i = 0; i < n - 1; ++i) {
        const NodeId internal = n + i;
        g.node(internal).time = 3.0 * (i + 1);
        g.link(internal, prev);
        g.link(internal, i + 1);
        prev = internal;
    }
    g.setRoot(prev);
    g.validate();
    std::vector<Sequence> seqs;
    for (int i = 0; i < n; ++i)
        seqs.push_back(Sequence::fromString("s" + std::to_string(i),
                                            i % 3 ? "ACGTACGT" : "TGCANGCA"));
    const Alignment aln{std::move(seqs)};
    const F81Model model(kUniformFreqs, 1.0);
    const DataLikelihood lik(aln, model);
    ASSERT_TRUE(std::isfinite(lik.logLikelihood(g)));
    EXPECT_EQ(overlayMismatches(lik, g, 80, 16, 101), 0);
}

TEST(EngineAgreement, OverlayEqualsStatelessWithGammaCategories) {
    Mt19937 rng(111);
    const Alignment data = randomData(12, 400, 111, /*nEvery=*/9);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::discreteGamma(0.6, 4));
    const Genealogy g = simulateCoalescent(12, 1.0, rng);
    EXPECT_EQ(overlayMismatches(lik, g, 40, 32, 111), 0);
}

TEST(EngineAgreement, OverlayEqualsStatelessOnUncompressedPatterns) {
    Mt19937 rng(121);
    const Alignment data = randomData(12, 300, 121, /*nEvery=*/5);
    const auto model = makeF84(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::uniformRate(), /*compress=*/false);
    const Genealogy g = simulateCoalescent(12, 1.0, rng);
    EXPECT_EQ(overlayMismatches(lik, g, 40, 32, 121), 0);
}

TEST(EngineAgreement, ConcurrentOverlaysFromOneFrontierAreExact) {
    // The GMH fan-out: one host-captured frontier, read by every worker at
    // once, each overlaying its own proposals.
    Mt19937 rng(131);
    const Alignment data = randomData(14, 500, 131);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::discreteGamma(0.8, 2));
    const Genealogy g = simulateCoalescent(14, 1.0, rng);
    ThreadPool pool(4);
    for (int r = 0; r < 4; ++r) {
        const NeighborhoodRegion region = makeNeighborhoodRegion(g, 1.0, rng);
        PathFrontier f;
        lik.engine().captureFrontier(g, region.target, f);
        std::vector<Genealogy> props;
        std::vector<double> want;
        for (int p = 0; p < 48; ++p) {
            props.push_back(proposeInNeighborhood(region, rng));
            want.push_back(lik.logLikelihood(props.back()));
        }
        std::vector<double> got(props.size());
        pool.parallelFor(props.size(), [&](std::size_t i) {
            got[i] = lik.engine().overlayLogLikelihood(f, props[i]);
        });
        EXPECT_EQ(got, want) << "region " << r;
    }
}

TEST(EngineAgreement, OverlayRejectsGenealogiesOffTheCapturedPath) {
    Mt19937 rng(141);
    const Alignment data = randomData(8, 120, 141);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    const NeighborhoodRegion region = makeNeighborhoodRegion(g, 1.0, rng);
    PathFrontier f;
    lik.engine().captureFrontier(g, region.target, f);
    // A fresh tree almost surely moves a frontier node or the path.
    Genealogy other = simulateCoalescent(8, 1.0, rng);
    while (other.node(region.target).parent == g.node(region.target).parent &&
           other.node(region.target).child == g.node(region.target).child)
        other = simulateCoalescent(8, 1.0, rng);
    bool threw = false;
    double value = 0.0;
    try {
        value = lik.engine().overlayLogLikelihood(f, other);
    } catch (const InvariantError&) {
        threw = true;
    }
    // Either the shape check fires, or the tree happens to share the path
    // and frontier (then the overlay is still exact).
    if (!threw) {
        EXPECT_EQ(value, lik.logLikelihood(other));
    }
    EXPECT_THROW(lik.engine().overlayLogLikelihood(f, simulateCoalescent(9, 1.0, rng)),
                 InvariantError);
}

}  // namespace
}  // namespace mpcgs
