// Multi-locus scaling: samples/second of the joint-theta pipeline across a
// loci x threads sweep. The loci axis is embarrassingly parallel (each
// locus runs its own chain set inside the lockstep MultiLocusRun rounds),
// so throughput should scale with min(loci, threads) while staying bitwise
// invariant to the thread count — the theta column is asserted identical
// across every thread row of a loci count (exit 1 otherwise). Emits
// BENCH_multilocus.json into the
// working directory, next to BENCH_mcmc.json. Note: like the other thread
// sweeps, on a single-core host every thread row measures the same serial
// work — the sweep shows real scaling only on multi-core hardware. With
// L > 1 the loci axis claims the pool and the per-locus samplers run
// serial ticks, so single-locus strategy parallelism (GMH fan-out) is
// traded for locus-level parallelism; at L >= threads that trade is
// strictly better.
//
//   $ ./multilocus_scaling [--samples N] [--seqs n] [--length L] [--paper-scale]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "rng/splitmix.h"
#include "seq/dataset.h"
#include "util/build_info.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct Row {
    std::size_t loci;
    unsigned threads;
    std::size_t samples;
    double seconds;
    double samplesPerSec;
    double speedupVs1T;
    double theta;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);
    const Options cli = Options::parse(argc, argv);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 8));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 200));
    const std::size_t samplesPerLocus =
        static_cast<std::size_t>(cli.getInt("samples", cfg.paperScale ? 8000 : 1500));

    printHeader("multi-locus scaling (samples/sec per loci x threads)");
    const std::size_t maxLoci = 8;
    Dataset all;
    for (std::size_t l = 0; l < maxLoci; ++l)
        all.add(Locus{"locus" + std::to_string(l),
                      makeDataset(nSeq, length, 1.0, static_cast<unsigned>(
                                                         splitMix64At(29, l) & 0x7FFFFFFFu)),
                      1.0});
    std::printf("%d sequences x %zu bp per locus, %zu samples per locus, one EM iteration\n\n",
                nSeq, length, samplesPerLocus);

    std::vector<Row> rows;
    Table table({"loci", "threads", "time (s)", "samples/sec", "speedup", "theta"});
    for (const std::size_t loci : {1u, 2u, 4u, 8u}) {
        Dataset subset;
        for (std::size_t l = 0; l < loci; ++l) subset.add(all.locus(l));

        double oneThreadSeconds = 0.0;
        double referenceTheta = 0.0;
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            MpcgsOptions opts;
            opts.theta0 = 1.0;
            opts.emIterations = 1;
            opts.samplesPerIteration = samplesPerLocus;
            opts.seed = 23;
            opts.strategy = Strategy::Gmh;
            opts.gmhProposals = 32;
            opts.gmhSamplesPerSet = 32;

            ThreadPool pool(threads);
            const MpcgsResult res = estimateTheta(subset, opts, &pool);
            const std::size_t produced = res.history.front().samples;
            if (threads == 1) {
                oneThreadSeconds = res.samplingSeconds;
                referenceTheta = res.theta;
            } else if (res.theta != referenceTheta) {
                std::fprintf(stderr,
                             "FATAL: estimate depends on the thread count "
                             "(%.17g vs %.17g at %zu loci, %u threads)\n",
                             res.theta, referenceTheta, loci, threads);
                return 1;
            }
            const double rate = static_cast<double>(produced) / res.samplingSeconds;
            const double speedup = oneThreadSeconds / res.samplingSeconds;
            rows.push_back(
                {loci, threads, produced, res.samplingSeconds, rate, speedup, res.theta});
            table.addRow({Table::integer(loci), Table::integer(threads),
                          Table::num(res.samplingSeconds, 3), Table::num(rate, 0),
                          Table::num(speedup, 2), Table::num(res.theta, 4)});
        }
    }
    table.print(std::cout);

    warnIfDirtyProvenance("BENCH_multilocus.json");
    std::ofstream json("BENCH_multilocus.json");
    json << "{\n  \"benchmark\": \"multilocus_scaling\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences\": " << nSeq << ", \"length\": " << length
         << ", \"samples_per_locus\": " << samplesPerLocus
         << ", \"strategy\": \"gmh\"},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"loci\": " << r.loci << ", \"threads\": " << r.threads
             << ", \"samples\": " << r.samples << ", \"seconds\": " << r.seconds
             << ", \"samples_per_sec\": " << r.samplesPerSec
             << ", \"speedup_vs_1t\": " << r.speedupVs1T << ", \"theta\": " << r.theta
             << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_multilocus.json (%zu rows)\n", rows.size());
    return 0;
}
