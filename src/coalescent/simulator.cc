#include "coalescent/simulator.h"

#include <vector>

#include "util/error.h"

namespace mpcgs {

Genealogy simulateCoalescent(int nTips, double theta, Rng& rng) {
    if (nTips < 2) throw ConfigError("simulateCoalescent: need at least 2 tips");
    if (theta <= 0.0) throw ConfigError("simulateCoalescent: theta must be positive");
    return simulateMerges(nTips, rng,
                          [&](double t, double kk) { return t + rng.exponential(kk / theta); });
}

Genealogy simulateMerges(int nTips, Rng& rng,
                         const std::function<double(double t, double kk)>& nextTime) {
    Genealogy g(nTips);
    std::vector<NodeId> active;
    active.reserve(static_cast<std::size_t>(nTips));
    for (int i = 0; i < nTips; ++i) active.push_back(i);

    double t = 0.0;
    NodeId nextInternal = nTips;
    while (active.size() > 1) {
        const double k = static_cast<double>(active.size());
        t = nextTime(t, k * (k - 1.0));

        // Choose the merging pair uniformly.
        const std::size_t i = static_cast<std::size_t>(rng.below(active.size()));
        std::size_t j = static_cast<std::size_t>(rng.below(active.size() - 1));
        if (j >= i) ++j;

        const NodeId parent = nextInternal++;
        g.node(parent).time = t;
        g.link(parent, active[i]);
        g.link(parent, active[j]);

        // Replace the two lineages by the parent (order-stable removal).
        const std::size_t lo = i < j ? i : j;
        const std::size_t hi = i < j ? j : i;
        active[lo] = parent;
        active[hi] = active.back();
        active.pop_back();
    }

    g.setRoot(active[0]);
    g.validate();
    return g;
}

}  // namespace mpcgs
