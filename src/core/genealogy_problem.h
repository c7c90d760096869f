// Problem bindings: genealogy state + posterior + proposal mechanisms,
// consumed by the generic MH and GMH engines.
//
// The unnormalized posterior (Eq. 24/29) is
//   log pi(G) = log P(D|G) + log P(G|theta),
// with P(D|G) from the Felsenstein kernel and P(G|theta) from Eq. 18.
#pragma once

#include <memory>
#include <mutex>

#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "coalescent/prior.h"
#include "lik/felsenstein.h"
#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Shared posterior evaluation. Holds references; keep the DataLikelihood
/// alive for the problem's lifetime. Likelihood evaluation is serial by
/// design: the samplers parallelize *across* proposals/chains (the paper's
/// one-thread-per-proposal layout), so nested pool use never occurs.
class GenealogyPosterior {
  public:
    GenealogyPosterior(const DataLikelihood& lik, double theta);

    double theta() const { return theta_; }
    double logPosterior(const Genealogy& g) const;

    /// logPosterior(g) for a genealogy that differs from the one `f` was
    /// captured from only on f's path; bitwise equal, pruning only the path.
    double logPosteriorOverPath(const PathFrontier& f, const Genealogy& g) const;

    /// Capture the generator's frontier along `start` -> root into `f`.
    void captureFrontier(const Genealogy& g, NodeId start, PathFrontier& f) const;

  private:
    const DataLikelihood& lik_;
    double theta_;
};

/// Baseline problem for MhChain: single-lineage recoalescence moves.
class MhGenealogyProblem {
  public:
    using State = Genealogy;

    MhGenealogyProblem(const DataLikelihood& lik, double theta)
        : posterior_(lik, theta), theta_(theta) {}

    double logPosterior(const State& g) const { return posterior_.logPosterior(g); }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        auto r = proposeRecoalesce(cur, theta_, rng);
        return Proposal{std::move(r.state), r.logForward, r.logReverse};
    }

    double theta() const { return theta_; }

  private:
    GenealogyPosterior posterior_;
    double theta_;
};

/// Multiple-proposal problem for GmhSampler: shared-neighbourhood
/// resimulation (§4.3).
///
/// Every proposal of one set shares the region: only T, P and P's
/// ancestors differ from the generator. makeRegion therefore captures the
/// generator's likelihood frontier along T -> root (on the host thread),
/// and logPosteriorInRegion prunes just that path per proposal, bitwise
/// equal to logPosterior. The frontier storage is reused across sets and
/// never checkpointed: the next region rebuilds it.
class GmhGenealogyProblem {
  public:
    using State = Genealogy;

    /// The neighbourhood plus the generator's frontier (read-only once the
    /// region is made, so the proposal fan-out reads it concurrently).
    struct Region : NeighborhoodRegion {
        std::shared_ptr<const PathFrontier> frontier;
    };

    GmhGenealogyProblem(const DataLikelihood& lik, double theta)
        : posterior_(lik, theta), theta_(theta) {}

    double logPosterior(const State& g) const { return posterior_.logPosterior(g); }

    double logPosteriorInRegion(const Region& region, const State& g) const {
        return posterior_.logPosteriorOverPath(*region.frontier, g);
    }

    Region makeRegion(const State& generator, Rng& hostRng) const;
    State proposeInRegion(const Region& region, Rng& rng) const {
        return proposeInNeighborhood(region, rng);
    }
    double logProposalDensity(const Region& region, const State& s) const {
        return logNeighborhoodDensity(region, s);
    }

    double theta() const { return theta_; }

  private:
    GenealogyPosterior posterior_;
    double theta_;
    // Frontier storage kept between sets: a region borrows it while no
    // older region still holds it, so one sampler reuses one buffer.
    mutable std::mutex frontierMutex_;
    mutable std::shared_ptr<PathFrontier> frontier_;
};

}  // namespace mpcgs
