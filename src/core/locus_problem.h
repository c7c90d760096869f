// The multi-locus inference problem: L independent loci sharing theta.
//
// The joint posterior factorizes over loci,
//
//   P(G_1..G_L | D, theta) = prod_l P(G_l | D_l, mu_l * theta),
//
// so the E-step samples each locus's genealogy with its own chain set
// (independent per-locus samplers over P(D_l|G_l) * P(G_l | mu_l theta)),
// and the M-step maximizes the pooled relative log likelihood
//
//   log L(theta) = sum_l log L_l(mu_l * theta)                    (Eq. 26, pooled)
//
// over the per-locus interval summaries — each L_l is the single-locus
// Eq. 26 curve evaluated at the locus's effective theta. With one locus and
// mu = 1 every expression reduces bitwise to the single-alignment pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/posterior.h"
#include "lik/locus_likelihoods.h"
#include "seq/dataset.h"

namespace mpcgs {

/// One locus's slice of the joint problem: its data likelihood plus the
/// mapping from the shared theta to the locus's effective theta.
struct LocusProblem {
    const Locus* locus = nullptr;         ///< name, alignment, mutation scale
    const DataLikelihood* lik = nullptr;  ///< per-locus engine (LocusLikelihoods)

    double mutationScale() const { return locus->mutationScale; }
    /// Effective theta governing this locus's coalescent prior. With
    /// mu = 1 this is the shared theta bitwise (x * 1.0 == x).
    double effectiveTheta(double theta) const { return theta * locus->mutationScale; }
};

/// The per-locus problem views over a Dataset and its likelihood set (both
/// must outlive this object).
class LocusProblemSet {
  public:
    LocusProblemSet(const Dataset& dataset, const LocusLikelihoods& liks);

    std::size_t count() const { return problems_.size(); }
    const LocusProblem& at(std::size_t l) const { return problems_[l]; }

  private:
    std::vector<LocusProblem> problems_;
};

/// RNG stream seed for locus `l` within an E-step seeded with `emSeed`.
/// Locus 0 keeps `emSeed` itself so single-locus runs reproduce the
/// pre-dataset pipeline bitwise; later loci stride by a large odd constant
/// (their chains then decorrelate through SplitMix64 as usual).
inline std::uint64_t locusStreamSeed(std::uint64_t emSeed, std::size_t locus) {
    return emSeed + static_cast<std::uint64_t>(locus) * 0xD1B54A32D192ED03ull;
}

/// The pooled M-step curve: sum of independent per-locus Eq. 26 curves,
/// each evaluated at its locus's effective theta.
class PooledRelativeLikelihood final : public ThetaLikelihood {
  public:
    struct LocusTerm {
        RelativeLikelihood rl;      ///< per-locus curve (driving theta_l = mu_l * theta0)
        double mutationScale = 1.0; ///< mu_l
        std::string name;
    };

    explicit PooledRelativeLikelihood(std::vector<LocusTerm> loci);

    /// sum_l log L_l(mu_l * theta).
    double logL(double theta, ThreadPool* pool = nullptr) const override;

    std::size_t locusCount() const { return loci_.size(); }

    /// Samples summed over loci.
    std::size_t sampleCount() const;

  private:
    std::vector<LocusTerm> loci_;
};

}  // namespace mpcgs
