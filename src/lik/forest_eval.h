// Partial-forest likelihood evaluation, one operation at a time — the
// reference oracle the tests hold the SMC likelihood backend
// (lik/lik_backend.h) to, bitwise. Nothing in the library runs it.
//
// A particle in the genealogy filter is a forest: k live subtrees whose
// roots have conditional likelihood vectors L_r(X) per site pattern. The
// forest's likelihood is
//
//   L(forest) = prod_r [ prod_p ( sum_X pi_X L_r,p(X) )^{w_p} ],
//
// i.e. each live root is marginalized over the stationary distribution
// (the Chen & Xie / sts partial-likelihood target). Growing a particle by
// one coalescence only combines two root vectors through their branch
// transition matrices (Eq. 19 for a single new node) — no re-walk of the
// subtree below — so a cloud of N particles costs O(N * patterns) per
// coalescence, embarrassingly parallel over particles.
//
// Rate heterogeneity: vectors are carried per rate category and averaged
// at the root marginalization, matching DataLikelihood's site-likelihood
// definition. Underflow: each pattern's vector is max-rescaled after every
// combine, the log scale carried per pattern (§5.3 discipline).
#pragma once

#include <vector>

#include "lik/felsenstein.h"
#include "util/matrix4.h"

namespace mpcgs {

/// Conditional likelihood vectors of one live subtree root:
/// data[(c * patterns + p) * 4 + x] for rate category c, pattern p,
/// nucleotide x, plus the per-pattern log rescale factor accumulated from
/// the subtree below.
struct SubtreePartials {
    std::vector<double> data;
    std::vector<double> scaleLog;
};

class ForestEvaluator {
  public:
    /// Borrows the pattern data, substitution model and rate categories of
    /// `lik`, which must outlive this object.
    explicit ForestEvaluator(const DataLikelihood& lik);

    /// Conditional vectors of tip `tip` (indicator columns; unknown sites
    /// are all-ones). scaleLog is zero.
    SubtreePartials tipPartials(int tip) const;

    /// Combine two live roots into their parent: `out` receives the
    /// Eq. 19 product of the children propagated through branch lengths
    /// `lenA`/`lenB` (scaled per rate category), max-rescaled per pattern.
    /// `out` may not alias the inputs.
    void combine(const SubtreePartials& a, double lenA, const SubtreePartials& b,
                 double lenB, SubtreePartials& out) const;

    /// log of this root's factor of the forest likelihood:
    /// sum_p w_p * [ log( sum_c v_c sum_X pi_X L_p,c(X) ) + scaleLog_p ].
    double rootLogLikelihood(const SubtreePartials& s) const;

  private:
    const SitePatterns& patterns_;
    const SubstModel& model_;
    const BaseFreqs& pi_;
    const RateCategories& rates_;
};

}  // namespace mpcgs
