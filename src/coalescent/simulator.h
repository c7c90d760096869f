// Coalescent genealogy simulator — the `ms` substitute (§6.1).
//
// Samples genealogies from the neutral constant-size Kingman coalescent
// with the paper's rate convention (Eq. 17): with k lineages extant, the
// total coalescence rate is k(k-1)/theta and the merging pair is uniform.
// Equivalent to `ms <n> 1 -T` up to the time-scaling constant, which the
// evaluation pipeline absorbs into theta.
#pragma once

#include <functional>

#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Draw one genealogy with `nTips` contemporary tips under theta.
/// Expected TMRCA is theta * (1 - 1/n); expected pairwise coalescence time
/// is theta / 2 for n = 2.
Genealogy simulateCoalescent(int nTips, double theta, Rng& rng);

/// The merge process every coalescent simulator shares: while k > 1
/// lineages are extant after time t, the next event is at nextTime(t,
/// k(k-1)) and a uniformly chosen pair merges there.
Genealogy simulateMerges(int nTips, Rng& rng,
                         const std::function<double(double t, double kk)>& nextTime);

}  // namespace mpcgs
