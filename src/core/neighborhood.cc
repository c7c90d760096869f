#include "core/neighborhood.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Inactive lineage count at backward time t: branches of the skeleton
/// crossing t, excluding the deleted nodes (T, P) and the three active
/// child branches.
int inactiveCount(const NeighborhoodRegion& r, double t) {
    const Genealogy& g = r.skeleton;
    int m = 0;
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        if (id == r.target || id == r.parent) continue;
        if (id == r.children[0] || id == r.children[1] || id == r.children[2]) continue;
        const NodeId parent = g.node(id).parent;
        if (parent == kNoNode) continue;  // root lineage lies above the region
        if (g.node(id).time <= t && t < g.node(parent).time) ++m;
    }
    return m;
}

}  // namespace

int neighborhoodTargetCount(const Genealogy& g) {
    // Internal nodes excluding the root.
    return g.internalCount() - 1;
}

NeighborhoodRegion makeNeighborhoodRegion(const Genealogy& g, NodeId target, double theta) {
    require(!g.isTip(target), "neighborhood: target must be an interior node");
    require(target != g.root(), "neighborhood: target must not be the root");
    require(theta > 0.0, "neighborhood: theta must be positive");

    NeighborhoodRegion r;
    r.skeleton = g;
    r.target = target;
    r.parent = g.node(target).parent;
    r.ancestor = g.node(r.parent).parent;  // kNoNode when parent is the root
    r.children = {g.node(target).child[0], g.node(target).child[1], g.sibling(target)};

    const double tA = (r.ancestor == kNoNode) ? kInf : g.node(r.ancestor).time;

    // Feasible-interval boundaries: the three child times plus every
    // skeleton node time strictly inside the region (each changes the
    // inactive count), closed by tA for a bounded region.
    std::vector<double> childTimes;
    for (const NodeId c : r.children) childTimes.push_back(g.node(c).time);
    const double tMin = *std::min_element(childTimes.begin(), childTimes.end());

    std::vector<double> bounds = childTimes;
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        if (id == r.target || id == r.parent) continue;
        const double t = g.node(id).time;
        if (t > tMin && t < tA) bounds.push_back(t);
    }
    if (r.ancestor != kNoNode) bounds.push_back(tA);
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    std::vector<FeasibleInterval> intervals;
    const std::size_t nb = bounds.size();
    for (std::size_t i = 0; i < nb; ++i) {
        const bool last = (i + 1 == nb);
        if (last && r.ancestor != kNoNode) break;  // tA closes the region
        FeasibleInterval iv;
        iv.begin = bounds[i];
        iv.end = last ? kInf : bounds[i + 1];
        for (const double ct : childTimes)
            if (ct == bounds[i]) ++iv.activeEnter;
        // Inactive count is constant inside; probe just above the boundary.
        const double probe = last ? bounds[i] + 1.0 : 0.5 * (bounds[i] + bounds[i + 1]);
        iv.inactive = inactiveCount(r, probe);
        intervals.push_back(iv);
    }
    require(!intervals.empty(), "neighborhood: empty feasible region");

    r.process = std::make_shared<DeathProcess>(std::move(intervals), theta);
    require(r.process->completionProbability() > 0.0, "neighborhood: infeasible region");
    return r;
}

NeighborhoodRegion makeNeighborhoodRegion(const Genealogy& g, double theta, Rng& rng) {
    const int count = neighborhoodTargetCount(g);
    require(count >= 1,
            "neighborhood: genealogy has no non-root interior node (need >= 3 tips)");
    // Interior node ids occupy [tipCount, nodeCount); skip the root.
    NodeId target;
    do {
        target = g.tipCount() +
                 static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(g.internalCount())));
    } while (target == g.root());
    return makeNeighborhoodRegion(g, target, theta);
}

Genealogy proposeInNeighborhood(const NeighborhoodRegion& region, Rng& rng) {
    std::array<double, 2> times{};  // the region has K = 3 actives
    region.process->sampleMergeTimes(rng, times);
    const double s0 = times[0];
    const double s1 = times[1];

    Genealogy g = region.skeleton;
    const NodeId T = region.target;
    const NodeId P = region.parent;

    // Detach the three children from T and P (T keeps its slot under P).
    for (const NodeId c : region.children) g.unlink(c);

    // First merge: uniform pair among the lineages active just before s0.
    std::array<NodeId, 3> active{kNoNode, kNoNode, kNoNode};
    std::size_t activeCount = 0;
    for (const NodeId c : region.children)
        if (g.node(c).time < s0) active[activeCount++] = c;
    require(activeCount >= 2, "neighborhood: fewer than two active lineages at first merge");
    const std::size_t i = static_cast<std::size_t>(rng.below(activeCount));
    std::size_t j = static_cast<std::size_t>(rng.below(activeCount - 1));
    if (j >= i) ++j;
    const NodeId ca = active[i];
    const NodeId cb = active[j];
    NodeId remaining = kNoNode;
    for (const NodeId c : region.children)
        if (c != ca && c != cb) remaining = c;

    g.node(T).time = s0;
    g.link(T, ca);
    g.link(T, cb);
    g.node(P).time = s1;
    g.link(P, remaining);

    g.validate();
    return g;
}

double logNeighborhoodDensity(const NeighborhoodRegion& region, const Genealogy& state) {
    const double s0 = state.node(region.target).time;
    const double s1 = state.node(region.parent).time;
    if (!(s0 < s1)) return -kInf;
    const std::array<double, 2> times{s0, s1};
    const double logTimes = region.process->logDensity(times);
    if (logTimes == -kInf) return -kInf;

    // Pair-choice probability at the first merge: 1 / C(j0, 2) with j0 the
    // active count just before s0.
    const int j0 = region.process->activeCountBefore(times, s0);
    if (j0 < 2) return -kInf;
    const double pairs = static_cast<double>(j0) * (j0 - 1) / 2.0;
    return logTimes - std::log(pairs);
}

}  // namespace mpcgs
