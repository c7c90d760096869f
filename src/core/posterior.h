// Posterior-likelihood kernel (§5.2.3): the relative likelihood curve
//
//   L(theta) = (1/M) sum_G P(G|theta) / P(G|theta0)          (Eq. 26)
//
// over the M sampled genealogies, evaluated from their stored interval
// vectors (§5.1.3: "nothing more than the time intervals are stored for
// each sample"). One logical device thread per sample, followed by a
// max-normalized log-space reduction (§5.3).
#pragma once

#include <utility>
#include <vector>

#include "coalescent/prior.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"

namespace mpcgs {

/// A sampled genealogy reduced to its sufficient statistics for Eq. 18:
/// the number of coalescent events and the weighted interval sum.
struct IntervalSummary {
    double weightedSum = 0.0;  ///< sum_k k(k-1) t_k
    int events = 0;            ///< n - 1

    static IntervalSummary fromIntervals(std::span<const CoalInterval> ivs) {
        return IntervalSummary{weightedIntervalSum(ivs), static_cast<int>(ivs.size())};
    }
    static IntervalSummary fromGenealogy(const Genealogy& g) {
        const auto ivs = g.intervals();
        return fromIntervals(ivs);
    }
};

/// Anything exposing a log relative likelihood as a function of theta: the
/// single-locus Eq. 26 curve below, or the multi-locus pooled curve
/// (core/locus_problem.h) that sums independent per-locus curves. The
/// M-step maximizers (core/mle.h) and support intervals
/// (core/support_interval.h) operate on this interface, so single- and
/// multi-locus inference share one estimation path.
class ThetaLikelihood {
  public:
    virtual ~ThetaLikelihood() = default;

    /// log L(theta). Parallel over samples when a pool is given.
    virtual double logL(double theta, ThreadPool* pool = nullptr) const = 0;

    /// Evaluate the curve on a log-spaced grid [lo, hi] (Fig 5 export).
    std::vector<std::pair<double, double>> curve(double lo, double hi, int points,
                                                 ThreadPool* pool = nullptr) const;
};

class RelativeLikelihood final : public ThetaLikelihood {
  public:
    RelativeLikelihood(std::vector<IntervalSummary> samples, double theta0);

    /// log L(theta). Parallel over samples when a pool is given.
    double logL(double theta, ThreadPool* pool = nullptr) const override;

    double theta0() const { return theta0_; }
    std::size_t sampleCount() const { return samples_.size(); }
    const std::vector<IntervalSummary>& samples() const { return samples_; }

  private:
    std::vector<IntervalSummary> samples_;
    double theta0_;
};

}  // namespace mpcgs
