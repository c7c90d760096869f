#include "mcmc/heated.h"

#include <array>
#include <cmath>

#include <gtest/gtest.h>

#include "mcmc/mh.h"
#include "rng/splitmix.h"
#include "util/stats.h"

namespace mpcgs {
namespace {

/// Bimodal 1-D target: mixture of two well-separated Gaussians. A plain
/// random-walk chain gets trapped in one mode; heated chains tunnel.
struct BimodalProblem {
    using State = double;
    double logPosterior(const State& x) const {
        const double a = -0.5 * (x + 6.0) * (x + 6.0) / 0.25;
        const double b = -0.5 * (x - 6.0) * (x - 6.0) / 0.25;
        const double m = std::max(a, b);
        return m + std::log(std::exp(a - m) + std::exp(b - m));
    }
    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        return Proposal{cur + rng.normal(0.0, 1.0), 0.0, 0.0};
    }
};

TEST(HeatedChainsTest, ValidatesTemperatureLadder) {
    const BimodalProblem problem;
    HeatedOptions bad;
    bad.temperatures = {1.5, 2.0};
    EXPECT_THROW((HeatedChains<BimodalProblem>(problem, 0.0, bad)), std::invalid_argument);
    bad.temperatures = {1.0, 0.5};
    EXPECT_THROW((HeatedChains<BimodalProblem>(problem, 0.0, bad)), std::invalid_argument);
    bad.temperatures = {};
    EXPECT_THROW((HeatedChains<BimodalProblem>(problem, 0.0, bad)), std::invalid_argument);
}

TEST(HeatedChainsTest, ColdChainVisitsBothModes) {
    const BimodalProblem problem;
    HeatedOptions opts;
    opts.temperatures = {1.0, 4.0, 16.0, 64.0};
    opts.swapInterval = 2;
    opts.seed = 3;
    HeatedChains<BimodalProblem> mc3(problem, -6.0, opts);
    std::size_t leftHits = 0, rightHits = 0;
    mc3.run(500, 60000, [&](const double& x) {
        if (x < -3.0) ++leftHits;
        if (x > 3.0) ++rightHits;
    });
    // Both modes visited substantially (a cold-only chain essentially never
    // crosses a 24-sigma valley).
    EXPECT_GT(leftHits, 5000u);
    EXPECT_GT(rightHits, 5000u);
    EXPECT_GT(mc3.stats().swapRate(), 0.05);
}

TEST(HeatedChainsTest, SingleColdChainMatchesPlainMh) {
    // With one temperature the sampler reduces to plain MH on pi.
    struct Gaussian {
        using State = double;
        double logPosterior(const State& x) const { return -0.5 * x * x; }
        struct Proposal {
            State state;
            double logForward;
            double logReverse;
        };
        Proposal propose(const State& cur, Rng& rng) const {
            return Proposal{cur + rng.normal(0.0, 1.2), 0.0, 0.0};
        }
    };
    const Gaussian problem;
    HeatedOptions opts;
    opts.temperatures = {1.0};
    opts.seed = 4;
    HeatedChains<Gaussian> chain(problem, 4.0, opts);
    RunningStats rs;
    chain.run(1000, 80000, [&](const double& x) { rs.add(x); });
    EXPECT_NEAR(rs.mean(), 0.0, 0.05);
    EXPECT_NEAR(rs.variance(), 1.0, 0.08);
    EXPECT_EQ(chain.stats().swapsProposed, 0u);
}

TEST(HeatedChainsTest, SingleColdChainIsBitwisePlainMh) {
    // Ladder {1.0}: the cold chain is an MhChain on stream
    // splitMix64At(seed, 1), and no swap is ever proposed, so the sweep
    // sequence is the plain chain's step sequence, bit for bit.
    const BimodalProblem problem;
    HeatedOptions opts;
    opts.temperatures = {1.0};
    opts.swapInterval = 1;
    opts.seed = 7;
    HeatedChains<BimodalProblem> heated(problem, -6.0, opts);
    MhChain<BimodalProblem> plain(problem, -6.0,
                                  Mt19937::fromSplitMix(splitMix64At(opts.seed, 1)));
    for (int i = 0; i < 5000; ++i) {
        heated.sweep();
        plain.step();
        ASSERT_EQ(heated.cold(), plain.current()) << "step " << i;
        ASSERT_EQ(heated.coldLogPosterior(), plain.currentLogPosterior()) << "step " << i;
    }
    EXPECT_EQ(heated.stats().accepted, plain.acceptedCount());
    EXPECT_EQ(heated.stats().swapsProposed, 0u);
}

TEST(HeatedChainsTest, MarginalOfColdChainIsCorrectDespiteSwaps) {
    // Swaps must not distort the cold marginal: compare moments of the
    // bimodal target against the analytic mixture moments (mean 0,
    // variance 36.25).
    const BimodalProblem problem;
    HeatedOptions opts;
    opts.temperatures = {1.0, 4.0, 16.0, 64.0};
    opts.swapInterval = 2;
    opts.seed = 5;
    HeatedChains<BimodalProblem> mc3(problem, 6.0, opts);
    RunningStats rs;
    mc3.run(2000, 150000, [&](const double& x) { rs.add(x); });
    EXPECT_NEAR(rs.mean(), 0.0, 1.2);
    EXPECT_NEAR(rs.variance(), 36.25, 4.0);
}

TEST(HeatedChainsTest, ColdLogPosteriorStaysInSync) {
    const BimodalProblem problem;
    HeatedOptions opts;
    opts.temperatures = {1.0, 8.0};
    opts.swapInterval = 1;
    opts.seed = 6;
    HeatedChains<BimodalProblem> mc3(problem, -6.0, opts);
    for (int i = 0; i < 500; ++i) {
        mc3.sweep();
        EXPECT_DOUBLE_EQ(mc3.coldLogPosterior(), problem.logPosterior(mc3.cold()));
    }
}

}  // namespace
}  // namespace mpcgs
