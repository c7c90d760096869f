// Quickstart: simulate a small data set and estimate theta with the
// multi-proposal sampler — the library's core loop in ~40 lines.
//
//   $ ./examples/quickstart
//
// Pipeline (paper §6.1): coalescent tree (ms substitute) -> sequences under
// F84 (seq-gen substitute) -> GMH-based EM estimation of theta.
#include <cstdio>

#include "coalescent/moment_estimators.h"
#include "coalescent/simulator.h"
#include "core/driver.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

int main() {
    using namespace mpcgs;

    // 1. Simulate the "unknown truth": a genealogy at theta = 1 and DNA
    //    sequences evolved along it.
    const double trueTheta = 1.0;
    Mt19937 rng(2016);
    const Genealogy truth = simulateCoalescent(/*nTips=*/12, trueTheta, rng);
    const auto generator = makeF84(/*kappa=*/2.0, kUniformFreqs);
    const Alignment data = simulateSequences(truth, *generator, {/*length=*/300, 1.0}, rng);
    std::printf("simulated %zu sequences x %zu bp (true theta = %.2f)\n",
                data.sequenceCount(), data.length(), trueTheta);

    // 2. Estimate theta starting from a deliberately bad driving value.
    MpcgsOptions opts;
    opts.theta0 = 0.05;
    opts.emIterations = 4;
    opts.samplesPerIteration = 4000;
    opts.strategy = Strategy::Gmh;
    opts.gmhSamplesPerSet = 32;

    ThreadPool pool;  // all hardware threads
    const MpcgsResult result = estimateTheta(data, opts, &pool);

    // 3. Report.
    for (std::size_t i = 0; i < result.history.size(); ++i)
        std::printf("  EM iteration %zu: theta %.4f -> %.4f\n", i + 1,
                    result.history[i].thetaBefore, result.history[i].thetaAfter);
    std::printf("estimated theta = %.4f (truth %.2f) in %.2fs\n", result.theta, trueTheta,
                result.totalSeconds);
    std::printf("moment estimators for comparison: Watterson %.4f, Tajima %.4f\n",
                wattersonTheta(data), tajimaTheta(data));
    return 0;
}
