// Structured-coalescent scaling: samples/second of the two-population
// migration pipeline across a chains x threads sweep. The chains axis
// carries the parallelism (lockstep rounds, one MH chain per forEachIndex
// work unit), so throughput should scale with min(chains, threads) while
// staying bitwise invariant to the thread count — the estimate column is
// asserted identical across every thread row of a chain count. Emits
// BENCH_structured.json into the working directory. Note: like the other
// thread sweeps, on a single-core host every thread row measures the same
// serial work — the sweep shows real scaling only on multi-core hardware.
//
//   $ ./structured_scaling [--samples N] [--seqs n] [--length L] [--paper-scale]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "coalescent/structured.h"
#include "core/structured_estimator.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/build_info.h"
#include "util/options.h"
#include "util/table.h"

namespace {

struct Row {
    std::size_t chains;
    unsigned threads;
    std::size_t samples;
    double seconds;
    double samplesPerSec;
    double speedupVs1T;
    double theta1;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options cli = Options::parse(argc, argv);
    const bool paperScale = cli.getBool("paper-scale", false);
    const int nPerDeme = static_cast<int>(cli.getInt("seqs", 8)) / 2;
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 200));
    const std::size_t samples =
        static_cast<std::size_t>(cli.getInt("samples", paperScale ? 8000 : 1500));

    std::printf("== structured (two-deme) scaling: samples/sec per chains x threads ==\n");

    // One fixed two-deme workload: truth theta = (1, 1), symmetric M = 0.5.
    MigrationModel truth(2, 1.0, 0.5);
    std::vector<int> demes;
    for (int i = 0; i < 2 * nPerDeme; ++i) demes.push_back(i < nPerDeme ? 0 : 1);
    Mt19937 rng(97);
    StructuredGenealogy g = simulateStructuredCoalescent(demes, truth, rng);
    SeqGenOptions so;
    so.length = length;
    const auto genModel = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(g.tree(), *genModel, so, rng);
    std::printf("%d+%d sequences x %zu bp, %zu samples, one EM iteration\n\n", nPerDeme,
                nPerDeme, length, samples);

    std::vector<Row> rows;
    Table table({"chains", "threads", "time (s)", "samples/sec", "speedup", "theta_1"});
    for (const std::size_t chains : {1u, 2u, 4u, 8u}) {
        double oneThreadSeconds = 0.0;
        double referenceTheta1 = 0.0;
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            StructuredOptions opts;
            opts.init = MigrationModel(2, 1.0, 0.5);
            opts.emIterations = 1;
            opts.samplesPerIteration = samples;
            opts.chains = chains;
            opts.seed = 23;

            ThreadPool pool(threads);
            const StructuredResult res = estimateStructured(aln, demes, opts, &pool);
            const std::size_t produced = res.history.front().samples;
            const double theta1 = res.estimate.theta[0];
            if (threads == 1) {
                oneThreadSeconds = res.samplingSeconds;
                referenceTheta1 = theta1;
            } else if (theta1 != referenceTheta1) {
                std::fprintf(stderr,
                             "FATAL: estimate depends on the thread count "
                             "(%.17g vs %.17g at %u threads)\n",
                             theta1, referenceTheta1, threads);
                return 1;
            }
            const double rate = static_cast<double>(produced) / res.samplingSeconds;
            const double speedup = oneThreadSeconds / res.samplingSeconds;
            rows.push_back({chains, threads, produced, res.samplingSeconds, rate, speedup,
                            theta1});
            table.addRow({Table::integer(chains), Table::integer(threads),
                          Table::num(res.samplingSeconds, 3), Table::num(rate, 0),
                          Table::num(speedup, 2), Table::num(theta1, 4)});
        }
    }
    table.print(std::cout);

    warnIfDirtyProvenance("BENCH_structured.json");
    std::ofstream json("BENCH_structured.json");
    json << "{\n  \"benchmark\": \"structured_scaling\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences_per_deme\": " << nPerDeme
         << ", \"length\": " << length << ", \"samples\": " << samples
         << ", \"true_theta\": [1.0, 1.0], \"true_mig\": 0.5},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"chains\": " << r.chains << ", \"threads\": " << r.threads
             << ", \"samples\": " << r.samples << ", \"seconds\": " << r.seconds
             << ", \"samples_per_sec\": " << r.samplesPerSec
             << ", \"speedup_vs_1t\": " << r.speedupVs1T << ", \"theta_1\": " << r.theta1
             << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_structured.json (%zu rows)\n", rows.size());
    return 0;
}
