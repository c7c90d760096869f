#include "coalescent/death_process.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/neighborhood.h"
#include "obs/metrics.h"
#include "rng/mt19937.h"
#include "util/error.h"
#include "util/stats.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DeathRate, MatchesKingmanPairCounts) {
    const double theta = 2.0;
    // j actives, m inactives: rate = [j(j-1) + 2jm] / theta.
    EXPECT_DOUBLE_EQ(DeathProcess::rate(2, 0, theta), 2.0 / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(3, 0, theta), 6.0 / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(2, 3, theta), (2.0 + 12.0) / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(3, 2, theta), (6.0 + 12.0) / theta);
    // A lone active lineage is absorbing in the restricted move.
    EXPECT_DOUBLE_EQ(DeathProcess::rate(1, 5, theta), 0.0);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(0, 5, theta), 0.0);
}

TEST(TransitionProb, DiagonalIsSurvival) {
    const double theta = 1.0, t = 0.4;
    const int m = 1;
    EXPECT_NEAR(DeathProcess::transitionProb(3, 3, t, m, theta),
                std::exp(-DeathProcess::rate(3, m, theta) * t), 1e-12);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(1, 1, t, m, theta), 1.0);
}

TEST(TransitionProb, TwoToOneClosedForm) {
    const double theta = 1.3, t = 0.7;
    const int m = 2;
    const double l2 = DeathProcess::rate(2, m, theta);
    EXPECT_NEAR(DeathProcess::transitionProb(2, 1, t, m, theta), 1.0 - std::exp(-l2 * t),
                1e-12);
}

TEST(TransitionProb, RowsSumToOne) {
    for (const int m : {0, 1, 3}) {
        for (const double t : {0.01, 0.3, 2.0}) {
            for (int a = 1; a <= 3; ++a) {
                double sum = 0.0;
                for (int b = 1; b <= a; ++b)
                    sum += DeathProcess::transitionProb(a, b, t, m, 1.0);
                EXPECT_NEAR(sum, 1.0, 1e-10) << "a=" << a << " m=" << m << " t=" << t;
            }
        }
    }
}

TEST(TransitionProb, ZeroAndInfiniteTime) {
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 3, 0.0, 1, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 2, 0.0, 1, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 1, kInf, 1, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 2, kInf, 1, 1.0), 0.0);
}

TEST(TransitionProb, ChapmanKolmogorov) {
    const double theta = 0.9;
    const int m = 1;
    const double s = 0.3, t = 0.5;
    for (int a = 1; a <= 3; ++a) {
        for (int b = 1; b <= a; ++b) {
            double conv = 0.0;
            for (int k = b; k <= a; ++k)
                conv += DeathProcess::transitionProb(a, k, s, m, theta) *
                        DeathProcess::transitionProb(k, b, t, m, theta);
            EXPECT_NEAR(conv, DeathProcess::transitionProb(a, b, s + t, m, theta), 1e-10);
        }
    }
}

TEST(TransitionProb, MatchesMonteCarloSimulation) {
    // Simulate the raw death process and compare empirical state occupancy.
    const double theta = 1.0, t = 0.5;
    const int m = 2, a = 3;
    Mt19937 rng(5);
    const int reps = 100000;
    std::array<int, 4> counts{};
    for (int r = 0; r < reps; ++r) {
        int j = a;
        double clock = 0.0;
        while (j > 1) {
            clock += rng.exponential(DeathProcess::rate(j, m, theta));
            if (clock > t) break;
            --j;
        }
        counts[static_cast<std::size_t>(j)]++;
    }
    for (int b = 1; b <= a; ++b) {
        const double expect = DeathProcess::transitionProb(a, b, t, m, theta);
        EXPECT_NEAR(counts[static_cast<std::size_t>(b)] / static_cast<double>(reps), expect,
                    0.01)
            << "b=" << b;
    }
}

// --- conditioned region sampling ---------------------------------------------

DeathProcess makeBoundedRegion(double theta = 1.0) {
    // Three children entering at 0, 0.1, 0.25; ancestor at 1.0; inactive
    // counts varying per interval.
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.1, 3, 1},
        {0.1, 0.25, 2, 1},
        {0.25, 1.0, 1, 1},
    };
    return DeathProcess(std::move(ivs), theta);
}

TEST(DeathProcessRegion, CompletionProbabilityInUnitInterval) {
    const DeathProcess dp = makeBoundedRegion();
    const double h = dp.completionProbability();
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
    EXPECT_EQ(dp.totalActive(), 3);
}

TEST(DeathProcessRegion, SamplesAreSortedAndInsideRegion) {
    const DeathProcess dp = makeBoundedRegion();
    Mt19937 rng(6);
    for (int r = 0; r < 500; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        ASSERT_EQ(times.size(), 2u);
        EXPECT_LT(times[0], times[1]);
        EXPECT_GT(times[0], 0.0);
        EXPECT_LT(times[1], 1.0);
        // Density of every sampled configuration is finite.
        EXPECT_GT(dp.logDensity(times), -kInf);
    }
}

TEST(DeathProcessRegion, DensityIntegratesToOne) {
    // 2-D trapezoid quadrature of exp(logDensity) over 0 < s0 < s1 < 1.
    const DeathProcess dp = makeBoundedRegion();
    const int grid = 300;
    const double h = 1.0 / grid;
    double integral = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) integral += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DeathProcessRegion, SamplerMatchesDensityMarginal) {
    // Empirical CDF of the first merge time vs quadrature of the density.
    const DeathProcess dp = makeBoundedRegion();
    Mt19937 rng(7);
    const int reps = 40000;
    int below = 0;
    const double cut = 0.3;
    for (int r = 0; r < reps; ++r)
        if (dp.sampleMergeTimes(rng)[0] < cut) ++below;

    const int grid = 400;
    const double h = 1.0 / grid;
    double massBelow = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        if (s0 >= cut) break;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) massBelow += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(below / static_cast<double>(reps), massBelow, 0.02);
}

// --- the sampler's region-level tables against the direct formulas ------------

/// The conditioned sampler and its density written straight from the
/// formulas, recomputing every transition probability, rate vector and
/// coefficient set at each use (no tables). DeathProcess precomputes these
/// per region; its draws and densities must match this bit for bit.
class DirectDeathProcess {
  public:
    DirectDeathProcess(std::vector<FeasibleInterval> ivs, double theta)
        : ivs_(std::move(ivs)), theta_(theta) {
        for (const auto& iv : ivs_) K_ += iv.activeEnter;
        bounded_ = std::isfinite(ivs_.back().end);
        const std::size_t R = ivs_.size();
        h_.assign(R + 1, std::vector<double>(static_cast<std::size_t>(K_ + 1), 0.0));
        for (int j = 1; j <= K_; ++j)
            h_[R][static_cast<std::size_t>(j)] = bounded_ ? (j == 1 ? 1.0 : 0.0) : 1.0;
        for (std::size_t i = R; i-- > 0;) {
            const auto& iv = ivs_[i];
            if (!std::isfinite(iv.end)) {
                for (int j = 0; j <= K_; ++j) h_[i][static_cast<std::size_t>(j)] = 1.0;
                continue;
            }
            const int enterNext = (i + 1 < R) ? ivs_[i + 1].activeEnter : 0;
            for (int j = 1; j <= K_; ++j) {
                double acc = 0.0;
                for (int b = 1; b <= j; ++b) {
                    const double s =
                        DeathProcess::transitionProb(j, b, iv.length(), iv.inactive, theta_);
                    if (s == 0.0) continue;
                    const int next = b + enterNext;
                    if (next > K_) continue;
                    acc += s * h_[i + 1][static_cast<std::size_t>(next)];
                }
                h_[i][static_cast<std::size_t>(j)] = acc;
            }
        }
    }

    std::vector<double> sample(Rng& rng) const {
        std::vector<double> times;
        int j = 0;
        const std::size_t R = ivs_.size();
        for (std::size_t i = 0; i < R; ++i) {
            const auto& iv = ivs_[i];
            j += iv.activeEnter;
            if (!std::isfinite(iv.end)) {
                double t = iv.begin;
                while (j > 1) {
                    t += rng.exponential(DeathProcess::rate(j, iv.inactive, theta_));
                    times.push_back(t);
                    --j;
                }
                break;
            }
            const int enterNext = (i + 1 < R) ? ivs_[i + 1].activeEnter : 0;
            std::vector<double> weights(static_cast<std::size_t>(j + 1), 0.0);
            for (int b = 1; b <= j; ++b) {
                const double s =
                    DeathProcess::transitionProb(j, b, iv.length(), iv.inactive, theta_);
                if (s == 0.0) continue;
                const double hNext =
                    (i + 1 < R) ? ((b + enterNext <= K_)
                                       ? h_[i + 1][static_cast<std::size_t>(b + enterNext)]
                                       : 0.0)
                                : (bounded_ ? (b == 1 ? 1.0 : 0.0) : 1.0);
                weights[static_cast<std::size_t>(b)] = s * hNext;
            }
            const int b = static_cast<int>(rng.categorical(weights));
            double offset = 0.0;
            double remaining = iv.length();
            for (int cur = j; cur > b; --cur) {
                const double u = firstEvent(cur, b, remaining, iv.inactive, rng);
                offset += u;
                remaining -= u;
                times.push_back(iv.begin + offset);
            }
            j = b;
        }
        std::sort(times.begin(), times.end());
        return times;
    }

    double logDensity(const std::vector<double>& times) const {
        double logf = 0.0;
        int j = 0;
        std::size_t e = 0;
        for (const auto& iv : ivs_) {
            j += iv.activeEnter;
            double t = iv.begin;
            while (e < times.size() && times[e] < iv.end) {
                const double lam = DeathProcess::rate(j, iv.inactive, theta_);
                logf += std::log(lam) - lam * (times[e] - t);
                t = times[e];
                --j;
                ++e;
            }
            if (std::isfinite(iv.end))
                logf += -DeathProcess::rate(j, iv.inactive, theta_) * (iv.end - t);
        }
        return logf - std::log(h_[0][static_cast<std::size_t>(ivs_[0].activeEnter)]);
    }

  private:
    std::vector<double> rates(int jmax, int m) const {
        std::vector<double> lambda(static_cast<std::size_t>(jmax + 1), 0.0);
        for (int j = 2; j <= jmax; ++j)
            lambda[static_cast<std::size_t>(j)] = DeathProcess::rate(j, m, theta_);
        return lambda;
    }

    static std::vector<double> coeffs(int a, int b, const std::vector<double>& lambda) {
        std::vector<double> coeff(static_cast<std::size_t>(a - b + 1));
        double rateProd = 1.0;
        for (int l = b + 1; l <= a; ++l) rateProd *= lambda[static_cast<std::size_t>(l)];
        for (int k = b; k <= a; ++k) {
            double denom = 1.0;
            for (int l = b; l <= a; ++l) {
                if (l == k) continue;
                denom *= lambda[static_cast<std::size_t>(l)] - lambda[static_cast<std::size_t>(k)];
            }
            coeff[static_cast<std::size_t>(k - b)] = rateProd / denom;
        }
        return coeff;
    }

    double firstEvent(int j, int b, double T, int m, Rng& rng) const {
        const auto lambda = rates(j, m);
        const double lj = lambda[static_cast<std::size_t>(j)];
        const auto coeff = coeffs(j - 1, b, lambda);
        auto cdf = [&](double u) {
            double acc = 0.0;
            for (int k = b; k <= j - 1; ++k) {
                const double lk = lambda[static_cast<std::size_t>(k)];
                const double c = coeff[static_cast<std::size_t>(k - b)];
                acc += c * lj * std::exp(-lk * T) * std::expm1((lk - lj) * u) / (lk - lj);
            }
            return acc;
        };
        const double target = rng.uniformPos() * cdf(T);
        double lo = 0.0, hi = T;
        for (int it = 0; it < 200 && (hi - lo) > 1e-15 * (1.0 + T); ++it) {
            const double mid = 0.5 * (lo + hi);
            if (cdf(mid) < target)
                lo = mid;
            else
                hi = mid;
        }
        return 0.5 * (lo + hi);
    }

    std::vector<FeasibleInterval> ivs_;
    double theta_;
    int K_ = 0;
    bool bounded_ = true;
    std::vector<std::vector<double>> h_;
};

TEST(DeathProcessRegion, TabledSamplerMatchesDirectFormulasBitwise) {
    const std::vector<std::pair<std::vector<FeasibleInterval>, double>> regions{
        {{{0.0, 0.1, 3, 1}, {0.1, 0.25, 2, 1}, {0.25, 1.0, 1, 1}}, 1.0},
        {{{0.0, 0.1, 3, 1}, {0.1, 0.25, 2, 1}, {0.25, 1.0, 1, 1}}, 0.2},
        {{{0.0, 0.05, 4, 2}, {0.05, 0.4, 3, 0}, {0.4, 0.7, 5, 1}, {0.7, 1.6, 2, 0}}, 0.8},
        {{{0.0, 0.3, 0, 2}, {0.3, 0.35, 6, 1}, {0.35, 2.0, 1, 1}}, 3.0},
        {{{0.0, 0.2, 2, 2}, {0.2, kInf, 0, 1}}, 1.0},
        {{{0.0, 0.1, 1, 2}, {0.1, 0.5, 3, 2}, {0.5, kInf, 2, 0}}, 1.5},
    };
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const DeathProcess tabled(regions[r].first, regions[r].second);
        const DirectDeathProcess direct(regions[r].first, regions[r].second);
        Mt19937 a(900 + static_cast<std::uint32_t>(r));
        Mt19937 b(900 + static_cast<std::uint32_t>(r));
        int mismatches = 0;
        for (int d = 0; d < 2000; ++d) {
            const auto got = tabled.sampleMergeTimes(a);
            const auto want = direct.sample(b);
            if (got != want || tabled.logDensity(got) != direct.logDensity(want)) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0) << "region " << r;
        EXPECT_EQ(a.nextU32(), b.nextU32()) << "region " << r << ": streams consumed differently";
    }
}

/// Draws `draws` merge-time sets from the tabled sampler and the direct
/// full-bisection oracle on identically seeded streams; returns the number
/// of draws whose times or density differ, or -1 when the streams end at
/// different positions.
int oracleMismatches(const std::vector<FeasibleInterval>& ivs, double theta, int draws,
                     std::uint32_t seed) {
    const DeathProcess tabled(ivs, theta);
    const DirectDeathProcess direct(ivs, theta);
    Mt19937 a(seed);
    Mt19937 b(seed);
    std::vector<double> got(static_cast<std::size_t>(tabled.totalActive() - 1));
    int mismatches = 0;
    for (int d = 0; d < draws; ++d) {
        tabled.sampleMergeTimes(a, got);
        const auto want = direct.sample(b);
        if (got != want || tabled.logDensity(got) != direct.logDensity(want)) ++mismatches;
    }
    return a.nextU32() == b.nextU32() ? mismatches : -1;
}

std::pair<std::vector<FeasibleInterval>, double> syntheticRegionDraw(Rng& rng) {
    const double theta = std::pow(10.0, rng.uniform(-2.0, 2.0));
    const int R = 1 + static_cast<int>(rng.below(5));
    const int K = 2 + static_cast<int>(rng.below(5));
    const bool bounded = rng.below(3) != 0;
    // Lengths in units of theta / (K (K + 9)), so the largest rate-length
    // product lambda(K, 5) * length stays within [1e-5, 20].
    const double unit = theta / (K * (K + 9));
    std::vector<FeasibleInterval> ivs(static_cast<std::size_t>(R));
    double t = 0.0;
    for (auto& iv : ivs) {
        iv.begin = t;
        t += unit * std::pow(10.0, rng.uniform(-5.0, std::log10(20.0)));
        iv.end = t;
        iv.inactive = static_cast<int>(rng.below(6));
    }
    if (!bounded) ivs.back().end = kInf;
    ivs[0].activeEnter = 1;  // a region starts with an active lineage
    for (int k = 1; k < K; ++k) ++ivs[rng.below(static_cast<std::uint64_t>(R))].activeEnter;
    return {std::move(ivs), theta};
}

/// A seeded synthetic region: K in 2..6 actives entering over 1..5
/// intervals, theta log-uniform on [0.01, 100], rate-scaled lengths
/// log-uniform over five decades, 0..5 inactives, a third of them
/// unbounded. Redrawn until feasible (round-off can zero a tiny region's
/// completion probability).
std::pair<std::vector<FeasibleInterval>, double> syntheticRegion(Rng& rng) {
    for (;;) {
        auto region = syntheticRegionDraw(rng);
        if (DeathProcess(region.first, region.second).completionProbability() > 0.0)
            return region;
    }
}

TEST(DeathProcessRegion, CertifiedReplayMatchesFullBisectionOnRandomRegions) {
    Mt19937 gen(4242);
    int draws = 0, degenerate = 0;
    const int regions = 1500;
    for (int r = 0; r < regions; ++r) {
        const auto [ivs, theta] = syntheticRegion(gen);
        try {
            ASSERT_EQ(oracleMismatches(ivs, theta, 40, 7000 + static_cast<std::uint32_t>(r)), 0)
                << "synthetic region " << r << ", theta " << theta;
            draws += 40;
        } catch (const InvariantError&) {
            // Cancellation left a first-merge CDF with no positive mass:
            // the sampler rejects the region, as it always has.
            ++degenerate;
        }
    }
    EXPECT_LT(degenerate, regions / 20);
    EXPECT_GE(draws, 55000);
}

TEST(DeathProcessRegion, CertifiedReplayMatchesFullBisectionOnProposalRegions) {
    // The K = 3 regions makeNeighborhoodRegion builds along a walk of
    // neighbourhood proposals over a 12-tip genealogy, across thetas.
    Mt19937 gen(99);
    Genealogy g = simulateCoalescent(12, 1.0, gen);
    int draws = 0;
    for (int step = 0; step < 1300; ++step) {
        const double theta = std::pow(10.0, gen.uniform(-1.0, 1.0));
        const NeighborhoodRegion region = makeNeighborhoodRegion(g, theta, gen);
        ASSERT_EQ(oracleMismatches(region.process->intervals(), theta, 40,
                                   500 + static_cast<std::uint32_t>(step)),
                  0)
            << "proposal region " << step;
        draws += 40;
        g = proposeInNeighborhood(region, gen);
    }
    EXPECT_GE(draws, 52000);
}

TEST(DeathProcessRegion, UncertifiableBracketFallsBackToTheFullBisection) {
    // Six actives collapsing to one inside 1e-4 time units: the first
    // merge's CDF is a sum of five exponentials that cancel to ~1e-16 of
    // their magnitude, so its rounding-error bound exceeds the whole CDF
    // mass. No bracket can be certified, and every midpoint of that draw
    // is evaluated, as a full bisection does; the later merges of the set
    // have milder cancellation and certify as usual.
    const double T = 1e-4;
    const std::vector<FeasibleInterval> ivs{{0.0, T, 0, 6}};
    obs::disarm();
    obs::reset();
    obs::arm();
    const int sets = 400;
    EXPECT_EQ(oracleMismatches(ivs, 1.0, sets, 31), 0);
    const auto snap = obs::snapshot();
    obs::disarm();
    obs::reset();
    EXPECT_EQ(snap.counter(obs::Counter::CoalescentMergeDraws), 5u * sets);
    // The full bisection of the first merge alone takes 1 + halvings
    // evaluations; each of the other four merges takes at least one.
    std::uint64_t halvings = 0;
    for (double w = T; w > 1e-15 * (1.0 + T); w *= 0.5) ++halvings;
    EXPECT_GE(snap.counter(obs::Counter::CoalescentCdfEvals), (1 + halvings + 4) * sets);
}

TEST(DeathProcessRegion, UnboundedRegionSamplesEventually) {
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.2, 2, 2},
        {0.2, kInf, 0, 1},
    };
    const DeathProcess dp(std::move(ivs), 1.0);
    EXPECT_DOUBLE_EQ(dp.completionProbability(), 1.0);
    Mt19937 rng(8);
    for (int r = 0; r < 200; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        ASSERT_EQ(times.size(), 2u);
        EXPECT_LT(times[0], times[1]);
        EXPECT_GT(dp.logDensity(times), -kInf);
    }
}

TEST(DeathProcessRegion, UnboundedDensityIntegratesToOne) {
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.2, 1, 2},
        {0.2, kInf, 0, 1},
    };
    const DeathProcess dp(std::move(ivs), 1.0);
    const int grid = 500;
    const double hi = 12.0;  // integrate far into the exponential tail
    const double h = hi / grid;
    double integral = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) integral += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DeathProcessRegion, DensityRejectsImpossibleConfigurations) {
    const DeathProcess dp = makeBoundedRegion();
    // Wrong count.
    const std::array<double, 1> one{0.5};
    EXPECT_EQ(dp.logDensity(one), -kInf);
    // Unsorted.
    const std::array<double, 2> unsorted{0.6, 0.4};
    EXPECT_EQ(dp.logDensity(unsorted), -kInf);
    // First merge before two lineages exist (only one active before 0.1).
    const std::array<double, 2> early{0.05, 0.5};
    EXPECT_EQ(dp.logDensity(early), -kInf);
    // Merge beyond the bounded region.
    const std::array<double, 2> late{0.3, 1.5};
    EXPECT_EQ(dp.logDensity(late), -kInf);
}

TEST(DeathProcessRegion, ActiveCountBefore) {
    const DeathProcess dp = makeBoundedRegion();
    const std::array<double, 2> times{0.3, 0.6};
    EXPECT_EQ(dp.activeCountBefore(times, 0.05), 1);
    EXPECT_EQ(dp.activeCountBefore(times, 0.2), 2);
    EXPECT_EQ(dp.activeCountBefore(times, 0.29), 3);
    EXPECT_EQ(dp.activeCountBefore(times, 0.5), 2);
    EXPECT_EQ(dp.activeCountBefore(times, 0.9), 1);
}

TEST(DeathProcessRegion, RejectsMalformedIntervals) {
    EXPECT_THROW(DeathProcess({}, 1.0), InvariantError);
    // Negative length.
    EXPECT_THROW(DeathProcess({{0.5, 0.2, 1, 2}}, 1.0), InvariantError);
    // Not contiguous.
    EXPECT_THROW(DeathProcess({{0.0, 0.2, 1, 2}, {0.4, 1.0, 1, 1}}, 1.0), InvariantError);
    // Fewer than two actives.
    EXPECT_THROW(DeathProcess({{0.0, 1.0, 1, 1}}, 1.0), InvariantError);
    // Bad theta.
    EXPECT_THROW(DeathProcess({{0.0, 1.0, 1, 3}}, 0.0), InvariantError);
}

class RegionThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(RegionThetaSweep, SamplingStaysConsistent) {
    const DeathProcess dp = makeBoundedRegion(GetParam());
    Mt19937 rng(11);
    RunningStats s0;
    for (int r = 0; r < 2000; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        EXPECT_GT(dp.logDensity(times), -kInf);
        s0.add(times[0]);
    }
    EXPECT_GT(s0.mean(), 0.0);
    EXPECT_LT(s0.mean(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Thetas, RegionThetaSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 10.0));

}  // namespace
}  // namespace mpcgs
