// Joint (theta, growth-rate) estimation — the thesis's §7 future-work
// extension. Simulates a population that has been growing exponentially,
// then estimates both parameters with the multi-proposal sampler. No new
// proposal kernel is needed: the pi/q GMH weights stay exact when only the
// target posterior changes (see DESIGN.md §1).
//
//   $ ./examples/growth_estimation [--theta T] [--growth G] [--length L]
#include <cstdio>

#include "coalescent/growth.h"
#include "core/growth_estimator.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/options.h"

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options cli = Options::parse(argc, argv);
    const GrowthParams truth{cli.getDouble("theta", 1.0), cli.getDouble("growth", 6.0)};
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 600));

    Mt19937 rng(2023);
    const Genealogy tree = simulateGrowthCoalescent(12, truth, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(tree, *model, {length, 1.0}, rng);
    std::printf("simulated %zu sequences x %zu bp under theta=%.2f, growth=%.2f\n",
                data.sequenceCount(), data.length(), truth.theta, truth.growth);
    std::printf("tree height %.4f (a flat population of the same theta averages %.4f)\n\n",
                tree.tmrca(), truth.theta * (1.0 - 1.0 / 12.0));

    GrowthEstimateOptions opts;
    opts.driving = {0.5, 0.0};  // start flat and wrong
    opts.emIterations = 5;
    opts.samplesPerIteration = 5000;
    opts.growthHi = 40.0;

    ThreadPool pool;
    const GrowthEstimateResult res = estimateThetaAndGrowth(data, opts, &pool);

    for (std::size_t i = 0; i < res.history.size(); ++i) {
        const GrowthEmRecord& h = res.history[i];
        std::printf("  EM %zu: (theta %.4f, growth %.3f) -> (theta %.4f, growth %.3f)  "
                    "logL %.4g, %zu samples, move rate %.2f, %.3fs\n",
                    i + 1, h.before.theta, h.before.growth, h.after.theta, h.after.growth,
                    h.logLAtMax, h.samples, h.moveRate, h.seconds);
    }
    std::printf("\nestimate: theta=%.4f growth=%.3f (truth: %.2f, %.2f) in %.1fs\n",
                res.params.theta, res.params.growth, truth.theta, truth.growth, res.seconds);
    std::printf("\nSingle-locus growth estimates are famously noisy (Kuhner 2006); the\n"
                "qualitative signal to look for is growth-hat clearly above 0.\n");
    return 0;
}
