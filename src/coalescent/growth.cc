#include "coalescent/growth.h"

#include <cmath>

#include "coalescent/simulator.h"
#include "util/error.h"

namespace mpcgs {
namespace {

/// (e^{g b} - e^{g a}) / g, stable as g -> 0 (limit b - a).
double expDiffOverG(double a, double b, double g) {
    const double x = g * (b - a);
    if (std::fabs(x) < 1e-12) return (b - a) * std::exp(g * a);
    return std::exp(g * a) * std::expm1(x) / g;
}

}  // namespace

double logGrowthCoalescentPrior(std::span<const CoalInterval> intervals,
                                const GrowthParams& p) {
    require(p.theta > 0.0, "growth prior needs theta > 0");
    double acc = 0.0;
    for (const auto& iv : intervals) {
        const double kk = static_cast<double>(iv.lineages) * (iv.lineages - 1);
        // Survival over the interval, then the coalescence at its end.
        acc -= kk * expDiffOverG(iv.begin, iv.end, p.growth) / p.theta;
        acc += std::log(2.0 / p.theta) + p.growth * iv.end;
    }
    return acc;
}

double logGrowthCoalescentPrior(const Genealogy& g, const GrowthParams& p) {
    const auto ivs = g.intervals();
    return logGrowthCoalescentPrior(std::span<const CoalInterval>(ivs), p);
}

Genealogy simulateGrowthCoalescent(int nTips, const GrowthParams& p, Rng& rng) {
    if (nTips < 2) throw ConfigError("simulateGrowthCoalescent: need at least 2 tips");
    if (p.theta <= 0.0) throw ConfigError("simulateGrowthCoalescent: theta must be positive");
    if (p.growth < 0.0)
        throw ConfigError(
            "simulateGrowthCoalescent: negative growth makes the coalescent improper "
            "(lineages may never find a common ancestor)");

    return simulateMerges(nTips, rng, [&](double t, double kk) {
        const double e = rng.exponential(1.0);
        if (p.growth < 1e-12) return t + e * p.theta / kk;
        // Invert the cumulative hazard kk (e^{g(t+tau)} - e^{g t}) / (g theta) = e.
        return std::log(std::exp(p.growth * t) + e * p.growth * p.theta / kk) / p.growth;
    });
}

}  // namespace mpcgs
