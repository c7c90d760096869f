// The full §6.1 evaluation pipeline for one population:
//
//   mscoal-style tree -> seq-gen-style F84 sequences -> PHYLIP round-trip
//   -> theta estimation with BOTH samplers -> comparison table.
//
//   $ ./examples/theta_pipeline [--theta T] [--seqs n] [--length L] [--reps R]
#include <cstdio>
#include <iostream>
#include <vector>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "rng/mt19937.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/options.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options cli = Options::parse(argc, argv);
    const double trueTheta = cli.getDouble("theta", 1.0);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 12));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 200));
    const int reps = static_cast<int>(cli.getInt("reps", 3));

    ThreadPool pool;
    std::vector<double> gmhEst, mhEst;

    for (int rep = 0; rep < reps; ++rep) {
        // Simulate and round-trip through PHYLIP, exactly as the paper's
        // tooling does.
        Mt19937 rng(1000 + static_cast<unsigned>(rep));
        const Genealogy truth = simulateCoalescent(nSeq, trueTheta, rng);
        const auto gen = makeF84(2.0, kUniformFreqs);
        const Alignment raw = simulateSequences(truth, *gen, {length, 1.0}, rng);
        const Alignment data = readPhylipString(writePhylipString(raw));

        MpcgsOptions opts;
        opts.theta0 = trueTheta / 4.0;  // start deliberately off
        opts.emIterations = 4;
        opts.samplesPerIteration = 4000;
        opts.gmhSamplesPerSet = 32;
        opts.seed = 500 + static_cast<unsigned>(rep);

        opts.strategy = Strategy::Gmh;
        gmhEst.push_back(estimateTheta(data, opts, &pool).theta);
        opts.strategy = Strategy::SerialMh;
        mhEst.push_back(estimateTheta(data, opts).theta);
        std::printf("replicate %d: gmh %.3f, serial mh %.3f\n", rep + 1, gmhEst.back(),
                    mhEst.back());
    }

    Table table({"estimator", "mean theta-hat", "stdev", "true theta"});
    table.addRow({"GMH (mpcgs)", Table::num(mean(gmhEst)), Table::num(stdev(gmhEst)),
                  Table::num(trueTheta)});
    table.addRow({"serial MH (LAMARC role)", Table::num(mean(mhEst)), Table::num(stdev(mhEst)),
                  Table::num(trueTheta)});
    std::cout << '\n';
    table.print(std::cout);
    return 0;
}
