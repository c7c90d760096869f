// End-to-end pipeline tests mirroring §6.1's data flow:
// simulate tree (ms) -> simulate sequences (seq-gen) -> PHYLIP -> estimate.
#include <cmath>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "phylo/newick.h"
#include "rng/mt19937.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

TEST(PipelineTest, TreeSurvivesNewickRoundTripIntoSeqgen) {
    Mt19937 rng(31);
    const Genealogy g = simulateCoalescent(10, 1.0, rng);
    const Genealogy g2 = fromNewick(toNewick(g));
    EXPECT_EQ(g2.tipCount(), g.tipCount());
    EXPECT_NEAR(g2.tmrca(), g.tmrca(), 1e-8 * g.tmrca());

    const auto model = makeF84(2.0, kUniformFreqs);
    Mt19937 seqRng(32);
    const Alignment aln = simulateSequences(g2, *model, {150, 1.0}, seqRng);
    EXPECT_EQ(aln.sequenceCount(), 10u);
    EXPECT_EQ(aln.length(), 150u);
}

TEST(PipelineTest, PhylipRoundTripPreservesData) {
    Mt19937 rng(33);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {200, 1.0}, rng);
    const Alignment back = readPhylipString(writePhylipString(aln));
    EXPECT_EQ(back.sequenceCount(), aln.sequenceCount());
    for (std::size_t i = 0; i < aln.sequenceCount(); ++i)
        EXPECT_EQ(back.sequence(i).toString(), aln.sequence(i).toString());
}

TEST(PipelineTest, SeqgenScaleActsLikeBranchMultiplier) {
    // Doubling the scale doubles expected divergence: sequences simulated
    // with larger scale differ more.
    Mt19937 rngTree(34);
    const Genealogy g = simulateCoalescent(2, 1.0, rngTree);
    const auto model = makeJc69();

    auto meanDiff = [&](double scale, unsigned seed) {
        Mt19937 rng(seed);
        double acc = 0.0;
        const int reps = 60;
        for (int r = 0; r < reps; ++r) {
            const Alignment aln = simulateSequences(g, *model, {500, scale}, rng);
            acc += static_cast<double>(aln.sequence(0).hammingDistance(aln.sequence(1))) / 500.0;
        }
        return acc / reps;
    };
    EXPECT_GT(meanDiff(3.0, 35), meanDiff(0.3, 36));
}

TEST(PipelineTest, SequencesFromDeeperTreesDivergeMore) {
    const auto model = makeJc69();
    auto divergence = [&](double theta, unsigned seed) {
        Mt19937 rng(seed);
        double acc = 0.0;
        const int reps = 40;
        for (int r = 0; r < reps; ++r) {
            const Genealogy g = simulateCoalescent(4, theta, rng);
            const Alignment aln = simulateSequences(g, *model, {300, 1.0}, rng);
            acc += static_cast<double>(aln.segregatingSites());
        }
        return acc / reps;
    };
    EXPECT_GT(divergence(2.0, 37), divergence(0.2, 38));
}

TEST(PipelineTest, FullEstimationFromPhylipText) {
    // The exact mpcgs entry path: PHYLIP text in, theta out.
    Mt19937 rng(39);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(g, *model, {300, 1.0}, rng);
    const Alignment parsed = readPhylipString(writePhylipString(aln));

    MpcgsOptions o;
    o.theta0 = 0.1;
    o.emIterations = 3;
    o.samplesPerIteration = 1500;
    o.gmhProposals = 16;
    o.gmhSamplesPerSet = 32;
    o.seed = 40;
    ThreadPool pool(4);
    const MpcgsResult res = estimateTheta(parsed, o, &pool);
    EXPECT_GT(res.theta, 0.05);
    EXPECT_LT(res.theta, 10.0);
}

TEST(PipelineTest, IdenticalSeedsReproduceIdenticalEstimates) {
    Mt19937 rng(41);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {200, 1.0}, rng);

    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 2;
    o.samplesPerIteration = 600;
    o.gmhSamplesPerSet = 32;
    o.seed = 42;
    const double a = estimateTheta(aln, o).theta;
    const double b = estimateTheta(aln, o).theta;
    EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace mpcgs
