#include "core/genealogy_problem.h"

#include "util/error.h"

namespace mpcgs {

GenealogyPosterior::GenealogyPosterior(const DataLikelihood& lik, double theta)
    : lik_(lik), theta_(theta) {
    if (theta <= 0.0) throw ConfigError("GenealogyPosterior: theta must be positive");
}

double GenealogyPosterior::logPosterior(const Genealogy& g) const {
    return lik_.logLikelihood(g) + logCoalescentPrior(g, theta_);
}

double GenealogyPosterior::logPosteriorOverPath(const PathFrontier& f,
                                                const Genealogy& g) const {
    return lik_.engine().overlayLogLikelihood(f, g) + logCoalescentPrior(g, theta_);
}

void GenealogyPosterior::captureFrontier(const Genealogy& g, NodeId start,
                                         PathFrontier& f) const {
    lik_.engine().captureFrontier(g, start, f);
}

GmhGenealogyProblem::Region GmhGenealogyProblem::makeRegion(const State& generator,
                                                            Rng& hostRng) const {
    Region r{makeNeighborhoodRegion(generator, theta_, hostRng), nullptr};
    std::shared_ptr<PathFrontier> f;
    {
        const std::lock_guard<std::mutex> lock(frontierMutex_);
        if (!frontier_ || frontier_.use_count() > 1) frontier_ = std::make_shared<PathFrontier>();
        f = frontier_;
    }
    posterior_.captureFrontier(generator, r.target, *f);
    r.frontier = std::move(f);
    return r;
}

}  // namespace mpcgs
