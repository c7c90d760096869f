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
//
// Cost. The constructor fills flat per-interval tables (rates, S_{a,b}
// coefficients and values, h) in a fixed number of allocations, and a draw
// into caller storage allocates nothing. Each merge time inside a bounded
// interval is the inverse of an analytic CDF found by a fixed bisection
// (sampleFirstEventTime). The bisection is *replayed*: a few Newton steps
// locate the root, a bracket [a, b] around it is certified against a
// derived bound on the CDF's floating-point error, and the unchanged loop
// evaluates the CDF only at midpoints inside [a, b] — monotonicity of the
// exact CDF settles every other comparison. The draws are therefore the
// bits a full bisection produces, for about 7 CDF evaluations per merge on
// GMH regions instead of ~51. A side of the bracket that cannot be
// certified stays open, and with both open the same loop evaluates every
// midpoint: there is no second sampling path.
#pragma once

#include <cstdint>
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
    /// Largest supported K: a draw keeps its scratch on the stack.
    static constexpr int kMaxActive = 32;

    /// `intervals` must be contiguous (interval[i].end == interval[i+1].begin),
    /// ordered by time, with non-negative lengths; the sum of activeEnter is
    /// the total number of active lineages K, 2 <= K <= kMaxActive. A bounded
    /// region (finite final end) conditions on exactly one active lineage
    /// surviving to the end; an unbounded region needs no conditioning.
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

    /// Draw the K-1 merge times conditioned on valid completion into
    /// `times` (size K-1), sorted ascending (most recent first). Allocates
    /// nothing. Throws InvariantError if infeasible. While the metrics
    /// registry is armed, bumps coalescent.merge_draws by the merge times
    /// placed by CDF inversion and coalescent.cdf_evals by the exact CDF
    /// evaluations they took.
    void sampleMergeTimes(Rng& rng, std::span<double> times) const;

    /// The same draw into a fresh vector.
    std::vector<double> sampleMergeTimes(Rng& rng) const {
        std::vector<double> times(static_cast<std::size_t>(totalActive_ - 1));
        sampleMergeTimes(rng, times);
        return times;
    }

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
    /// *after* adding activeEnter at that boundary: hStart_[i * (K+1) + j].
    /// Also fills the per-interval tables the sampler reads (trans_,
    /// lambda_, coeff_), so a draw evaluates no transition probability.
    void buildBackwardRecursion();

    /// Sample the next merge inside interval i with remaining length T and
    /// current count j, conditioned on ending the interval with b actives,
    /// by the certified bisection replay described in the .cc (error bound,
    /// bracket certificate, fallback). `terms` is caller scratch of at
    /// least K doubles; `cdfEvals` counts the exact CDF evaluations.
    double sampleFirstEventTime(std::size_t i, int j, int b, double T, double* terms,
                                std::uint64_t& cdfEvals, Rng& rng) const;

    std::size_t k1() const { return static_cast<std::size_t>(totalActive_ + 1); }

    /// Flat index into the per-interval (K+1) x (K+1) tables.
    std::size_t pairIndex(std::size_t i, int a, int b) const {
        return (i * k1() + static_cast<std::size_t>(a)) * k1() + static_cast<std::size_t>(b);
    }

    /// Offset of S_{a,b}'s coefficient set inside one interval's block of
    /// coeff_: the sets are packed by a = 1..K, then b = 1..a, set (a, b)
    /// holding a - b + 1 entries.
    static std::size_t coeffOffset(int a, int b) {
        const auto A = static_cast<std::size_t>(a), B = static_cast<std::size_t>(b);
        return (A - 1) * A * (A + 1) / 6 + (B - 1) * (A + 1) - (B - 1) * B / 2;
    }

    std::vector<FeasibleInterval> intervals_;
    double theta_;
    int totalActive_ = 0;
    bool bounded_ = true;
    // Region-level tables over the intervals, built once with the backward
    // recursion and shared by every draw:
    std::vector<double> hStart_;  ///< h at i * (K+1) + j for i = 0..R (R: region end)
    std::vector<double> trans_;   ///< S_{j,b}(length) at pairIndex(i, j, b)
    std::vector<double> lambda_;  ///< rate(k, m_i) at i * (K+1) + k
    /// transitionCoeffs(a, b) of interval i at i * coeffStride_ + coeffOffset(a, b)
    std::vector<double> coeff_;
    std::size_t coeffStride_ = 0;
};

}  // namespace mpcgs
