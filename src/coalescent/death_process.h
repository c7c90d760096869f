// The feasible-interval resimulation machinery of §4.2.
//
// When the proposal kernel deletes a neighbourhood of the genealogy, the
// detached ("active") lineages must re-coalesce across a sequence of
// feasible intervals, each with a constant number of untouched ("inactive")
// lineages. Going backward in time, the active count j is a pure death
// process: while j actives coexist with m inactives, some coalescence
// involving an active lineage occurs at rate
//
//   lambda(j, m) = j (j - 1 + 2m) / theta,
//
// the Kingman rate of all pairs containing at least one active lineage
// (the paper: "a constant chance of coalescence ... a function of the
// number of active lineages, the number of inactive lineages and theta").
// A single remaining active lineage is absorbing (the restricted proposal
// only merges active lineages with each other; see DESIGN.md §1).
//
// The class computes the interval transition probabilities S_{a,b}(t)
// (paper's S_{i,j}), runs the backward completion recursion (paper's
// P_i(n)), samples merge times *conditioned on a valid completion* —
// exactly one active lineage at the ancient end of a bounded region — and
// evaluates the exact log-density of any realized set of merge times.
// The density is exact by the telescoping identity
//
//   q(times) = [unconditioned trajectory density] / h(start),
//
// which the GMH weights consume directly (w = pi/q).
#pragma once

#include <span>
#include <vector>

#include "rng/rng.h"

namespace mpcgs {

/// One feasible interval, ordered recent -> ancient.
struct FeasibleInterval {
    double begin = 0.0;  ///< recent boundary (backward time)
    double end = 0.0;    ///< ancient boundary; may be +inf for the last interval
    int inactive = 0;    ///< inactive lineage count m, constant within
    int activeEnter = 0; ///< active lineages whose branches start at `begin`

    double length() const { return end - begin; }
};

class DeathProcess {
  public:
    /// `intervals` must be contiguous (interval[i].end == interval[i+1].begin),
    /// ordered by time, with non-negative lengths; the sum of activeEnter is
    /// the total number of active lineages K. A bounded region (finite final
    /// end) conditions on exactly one active lineage surviving to the end;
    /// an unbounded region needs no conditioning.
    DeathProcess(std::vector<FeasibleInterval> intervals, double theta);

    /// Hazard of an active-lineage coalescence with j actives, m inactives.
    static double rate(int j, int m, double theta);

    /// S_{a,b}(t): probability that a actives reduce to b over duration t
    /// with m inactives (paper's S_{i,j}). Requires 1 <= b <= a.
    static double transitionProb(int a, int b, double t, int m, double theta);

    /// Probability of a valid completion from the start of the region
    /// (h-value the forward walk is conditioned on; log of the paper's
    /// backward-recursion root). 0 means the region is infeasible.
    double completionProbability() const;

    /// Total active lineages K.
    int totalActive() const { return totalActive_; }

    /// Draw the K-1 merge times conditioned on valid completion, sorted
    /// ascending (most recent first). Throws InvariantError if infeasible.
    std::vector<double> sampleMergeTimes(Rng& rng) const;

    /// Exact log-density of `mergeTimes` (sorted ascending) under
    /// sampleMergeTimes. Returns -inf for configurations the sampler cannot
    /// produce (wrong count, times outside the region, more merges than
    /// available actives).
    double logDensity(std::span<const double> mergeTimes) const;

    /// Number of active lineages present just before backward time t, given
    /// the merge times (for the topology-choice factors of the proposal).
    int activeCountBefore(std::span<const double> mergeTimes, double t) const;

    const std::vector<FeasibleInterval>& intervals() const { return intervals_; }

  private:
    /// h-value at the start of interval i as a function of the active count
    /// *after* adding activeEnter at that boundary: hStart_[i][j]. Also
    /// fills the per-interval tables the sampler reads (trans_, lambda_,
    /// coeff_), so a draw evaluates no transition probability itself.
    void buildBackwardRecursion();

    /// Sample the next merge inside interval i with remaining length T and
    /// current count j, conditioned on ending the interval with b actives.
    /// `terms` is caller scratch of at least K doubles.
    double sampleFirstEventTime(std::size_t i, int j, int b, double T, double* terms,
                                Rng& rng) const;

    /// Flat index into the per-interval (K+1) x (K+1) tables.
    std::size_t pairIndex(std::size_t i, int a, int b) const {
        const std::size_t k1 = static_cast<std::size_t>(totalActive_ + 1);
        return (i * k1 + static_cast<std::size_t>(a)) * k1 + static_cast<std::size_t>(b);
    }

    std::vector<FeasibleInterval> intervals_;
    double theta_;
    int totalActive_ = 0;
    bool bounded_ = true;
    std::vector<std::vector<double>> hStart_;  // [interval][activeCount]
    // Region-level tables over the finite intervals, built once with the
    // backward recursion and shared by every draw:
    std::vector<double> trans_;   ///< S_{j,b}(length) at pairIndex(i, j, b)
    std::vector<double> lambda_;  ///< rate(k, m_i) at i * (K+1) + k
    /// transitionCoeffs(a, b) of interval i, starting at coeffAt_[pairIndex(i, a, b)]
    std::vector<double> coeff_;
    std::vector<std::size_t> coeffAt_;
};

}  // namespace mpcgs
