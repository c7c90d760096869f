// Problem bindings: genealogy state + posterior + proposal mechanisms,
// consumed by the generic MH and GMH engines.
//
// The unnormalized posterior (Eq. 24/29) is
//   log pi(G) = log P(D|G) + log P(G|theta),
// with P(D|G) from the Felsenstein kernel and P(G|theta) from Eq. 18.
// Problems hold a reference to the DataLikelihood; keep it alive for the
// problem's lifetime. Likelihood evaluation is serial by design: the
// samplers parallelize *across* proposals/chains (the paper's
// one-thread-per-proposal layout), so nested pool use never occurs.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "coalescent/prior.h"
#include "lik/felsenstein.h"
#include "phylo/tree.h"
#include "rng/rng.h"
#include "util/error.h"

namespace mpcgs {

/// The constant-size coalescent prior P(G|theta) (Eq. 18).
class ConstantSizePrior {
  public:
    explicit ConstantSizePrior(double theta) : theta_(theta) {
        if (theta <= 0.0) throw ConfigError("coalescent prior: theta must be positive");
    }

    double logPrior(const Genealogy& g) const { return logCoalescentPrior(g, theta_); }
    double theta() const { return theta_; }

  private:
    double theta_;
};

/// Baseline problem for MhChain: single-lineage recoalescence moves.
class MhGenealogyProblem {
  public:
    using State = Genealogy;

    MhGenealogyProblem(const DataLikelihood& lik, double theta) : lik_(lik), prior_(theta) {}

    double logPosterior(const State& g) const {
        return lik_.logLikelihood(g) + prior_.logPrior(g);
    }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        auto r = proposeRecoalesce(cur, prior_.theta(), rng);
        return Proposal{std::move(r.state), r.logForward, r.logReverse};
    }

    double theta() const { return prior_.theta(); }

  private:
    const DataLikelihood& lik_;
    ConstantSizePrior prior_;
};

/// Multiple-proposal problem for GmhSampler over P(D|G) * prior(G):
/// shared-neighbourhood resimulation (§4.3). The prior is the only
/// model-specific part: a `Prior` offers `double logPrior(const
/// Genealogy&) const` and `double theta() const`, the theta of the
/// constant-size proposal kernel. GmhGenealogyProblem is the constant-size
/// case; the growth estimator supplies the growth coalescent.
///
/// Every proposal of one set shares the region: only T, P and P's
/// ancestors differ from the generator. makeRegion therefore captures the
/// generator's likelihood frontier along T -> root (on the host thread),
/// and logPosteriorInRegion prunes just that path per proposal, bitwise
/// equal to logPosterior. The frontier storage is reused across sets and
/// never checkpointed: the next region rebuilds it.
template <class Prior>
class GmhProblem {
  public:
    using State = Genealogy;

    /// The neighbourhood plus the generator's frontier (read-only once the
    /// region is made, so the proposal fan-out reads it concurrently).
    struct Region : NeighborhoodRegion {
        std::shared_ptr<const PathFrontier> frontier;
    };

    template <class... PriorArgs>
    explicit GmhProblem(const DataLikelihood& lik, PriorArgs&&... priorArgs)
        : lik_(lik), prior_(std::forward<PriorArgs>(priorArgs)...) {}

    double logPosterior(const State& g) const {
        return lik_.logLikelihood(g) + prior_.logPrior(g);
    }

    double logPosteriorInRegion(const Region& region, const State& g) const {
        return lik_.engine().overlayLogLikelihood(*region.frontier, g) + prior_.logPrior(g);
    }

    Region makeRegion(const State& generator, Rng& hostRng) const {
        Region r{makeNeighborhoodRegion(generator, prior_.theta(), hostRng), nullptr};
        std::shared_ptr<PathFrontier> f;
        {
            // Borrow the kept buffer unless an older region still holds it.
            const std::lock_guard<std::mutex> lock(frontierMutex_);
            if (!frontier_ || frontier_.use_count() > 1)
                frontier_ = std::make_shared<PathFrontier>();
            f = frontier_;
        }
        lik_.engine().captureFrontier(generator, r.target, *f);
        r.frontier = std::move(f);
        return r;
    }
    State proposeInRegion(const Region& region, Rng& rng) const {
        return proposeInNeighborhood(region, rng);
    }
    double logProposalDensity(const Region& region, const State& s) const {
        return logNeighborhoodDensity(region, s);
    }

    double theta() const { return prior_.theta(); }

  private:
    const DataLikelihood& lik_;
    Prior prior_;
    // Frontier storage kept between sets, so one sampler reuses one buffer.
    mutable std::mutex frontierMutex_;
    mutable std::shared_ptr<PathFrontier> frontier_;
};

/// The constant-size GMH problem: GmhGenealogyProblem(lik, theta).
using GmhGenealogyProblem = GmhProblem<ConstantSizePrior>;

}  // namespace mpcgs
