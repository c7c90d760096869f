// Experiment E1 — Table 1 / Fig 13 of the paper: accuracy of theta
// estimation. For each true theta in {0.5, 1, 2, 3, 4}, simulate replicate
// data sets (12 sequences x 200 bp, F84), estimate theta with the serial MH
// baseline (the LAMARC role) and with GMH (mpcgs), and report mean, stdev
// and the Pearson correlation against truth.
//
// Paper values for reference (Table 1): LAMARC {0.858, 0.959, 2.521, 5.432,
// 4.384}, mpcgs {0.966, 1.131, 2.423, 5.32, 3.913}, r = 0.905.
//
//   --paper  : more replicates and samples (slower, tighter estimates)
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/workload.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);
    const int reps = cfg.paperScale ? 8 : 3;
    const std::size_t samples = cfg.paperScale ? 20000 : 4000;

    printHeader("Table 1 / Fig 13: theta-estimation accuracy (paper r = 0.905)");
    std::printf("12 sequences x 200 bp, F84 data, %d replicates, %zu samples/EM step\n\n",
                reps, samples);

    const std::vector<double> trueThetas{0.5, 1.0, 2.0, 3.0, 4.0};
    ThreadPool pool(cfg.threads);

    Table table({"true theta", "MH mean", "MH stdev", "mpcgs mean", "mpcgs stdev"});
    std::vector<double> truthAll, mhAll, gmhAll, mhMeans, gmhMeans;

    for (const double theta : trueThetas) {
        std::vector<double> mhEst, gmhEst;
        for (int rep = 0; rep < reps; ++rep) {
            const unsigned seed = static_cast<unsigned>(1000.0 * theta) + 17u * rep;
            const Alignment data = makeDataset(12, 200, theta, seed);

            MpcgsOptions opts;
            opts.theta0 = 1.0;  // common driving start, as LAMARC defaults
            opts.emIterations = 4;
            opts.samplesPerIteration = samples;
            opts.gmhSamplesPerSet = 32;
            opts.seed = seed;

            opts.strategy = Strategy::SerialMh;
            mhEst.push_back(estimateTheta(data, opts).theta);
            opts.strategy = Strategy::Gmh;
            gmhEst.push_back(estimateTheta(data, opts, &pool).theta);

            truthAll.push_back(theta);
            mhAll.push_back(mhEst.back());
            gmhAll.push_back(gmhEst.back());
        }
        mhMeans.push_back(mean(mhEst));
        gmhMeans.push_back(mean(gmhEst));
        table.addRow({Table::num(theta, 1), Table::num(mean(mhEst)), Table::num(stdev(mhEst)),
                      Table::num(mean(gmhEst)), Table::num(stdev(gmhEst))});
    }

    table.print(std::cout);
    std::printf("\nPearson r (truth vs serial MH):  %.3f\n", pearson(truthAll, mhAll));
    std::printf("Pearson r (truth vs mpcgs/GMH):  %.3f   [paper: 0.905]\n",
                pearson(truthAll, gmhAll));
    std::printf("Pearson r (MH vs GMH):           %.3f\n", pearson(mhAll, gmhAll));
    std::printf("Pearson r (per-theta means):     %.3f\n", pearson(mhMeans, gmhMeans));
    std::printf("\nShape criterion: both estimators track truth strongly (r >~ 0.9) and\n"
                "agree with each other, matching the paper's conclusion that the\n"
                "multi-proposal sampler preserves the accuracy of the original.\n");
    return 0;
}
