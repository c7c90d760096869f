#include "lik/site_pattern.h"

#include <map>

#include "util/error.h"

namespace mpcgs {

SitePatterns::SitePatterns(const Alignment& aln, bool compress) {
    nSeq_ = aln.sequenceCount();
    nSites_ = aln.length();
    require(nSeq_ > 0 && nSites_ > 0, "SitePatterns: empty alignment");
    names_ = aln.names();

    if (!compress) {
        codes_.resize(nSites_ * nSeq_);
        weights_.assign(nSites_, 1.0);
        for (std::size_t site = 0; site < nSites_; ++site)
            for (std::size_t s = 0; s < nSeq_; ++s)
                codes_[site * nSeq_ + s] = aln.sequence(s).at(site);
        return;
    }

    std::map<std::vector<NucCode>, std::size_t> seen;
    std::vector<NucCode> col(nSeq_);
    for (std::size_t site = 0; site < nSites_; ++site) {
        for (std::size_t s = 0; s < nSeq_; ++s) col[s] = aln.sequence(s).at(site);
        const auto it = seen.find(col);
        if (it == seen.end()) {
            seen.emplace(col, weights_.size());
            weights_.push_back(1.0);
            codes_.insert(codes_.end(), col.begin(), col.end());
        } else {
            weights_[it->second] += 1.0;
        }
    }
}

}  // namespace mpcgs
