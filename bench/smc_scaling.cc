// SMC particle-filter scaling: one pass's wall time and logZ across a
// particles x threads sweep. Particle propagation is embarrassingly
// parallel over fixed-size blocks (par/thread_pool.h launchBlocked with
// per-slot RNG streams) and the likelihood work runs as one batch per
// generation (lik/lik_backend.h), so throughput should scale with the
// thread count while logZ stays BITWISE identical — this harness asserts
// the bitwise thread invariance (exit 1 on any mismatch), then emits
// BENCH_smc.json into the working directory with build provenance and
// per-row batch statistics.
//
//   $ ./smc_scaling [--particles N] [--seqs n] [--length L] [--paper]
//                   [--require-scaling PCT] [--metrics 0|1]
//
// --require-scaling PCT exits 1 if the widest pool's throughput falls
// below PCT% of the 1-thread rate for any particle count (the CI
// regression gate against nominal parallelism).
//
// --metrics (default 1) arms the metrics registry; the per-row backend
// execution counters come straight from it (obs::reset() between rows),
// not from any bench-private stats copy. Run with --metrics 0 to measure
// the armed-vs-unarmed overhead (contract: within 2% at 8 threads);
// unarmed rows report zero counters.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/workload.h"
#include "lik/felsenstein.h"
#include "obs/metrics.h"
#include "smc/smc_sampler.h"
#include "util/build_info.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct Row {
    std::size_t particles;
    unsigned threads;
    double seconds;
    double particlesPerSec;
    double logZ;
    double speedupVs1T;
    std::uint64_t combineOps;         ///< lik.combine_ops over the pass
    std::uint64_t matricesRequested;  ///< naive 2-per-combine-per-category count
    std::uint64_t matricesComputed;   ///< matrices actually exponentiated
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const Options cli = Options::parse(argc, argv);
    if (cli.has("print-config")) {
        std::fputs(buildConfigSummary().c_str(), stdout);
        return 0;
    }
    const bool paper = cli.getBool("paper", false);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 10));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 300));
    const std::size_t maxParticles =
        static_cast<std::size_t>(cli.getInt("particles", paper ? 8192 : 2048));
    const long requireScaling = cli.getInt("require-scaling", 0);
    const bool metricsArmed = cli.getBool("metrics", true);
    if (metricsArmed) obs::arm();

    printHeader("SMC scaling (one filter pass per particles x threads cell)");
    const Alignment data = makeDataset(nSeq, length, 1.0, 31);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    std::printf("%d sequences x %zu bp, theta = 1.0, systematic resampling\n\n", nSeq,
                length);

    bool bitwiseOk = true;
    std::vector<Row> rows;
    Table table({"particles", "threads", "time (s)", "particles/sec", "logZ", "speedup"});
    for (std::size_t particles = 256; particles <= maxParticles; particles *= 4) {
        SmcOptions opts;
        opts.particles = particles;
        double oneThreadSeconds = 0.0;
        double referenceLogZ = 0.0;  // the 1-thread logZ
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            ThreadPool pool(threads);
            obs::reset();  // row isolation: counters below are per-pass
            Timer timer;
            const SmcPassResult res = runSmcPass(lik, 1.0, opts, 47, &pool);
            const double seconds = timer.seconds();
            const obs::MetricsSnapshot snap = obs::snapshot();
            if (threads == 1) {
                oneThreadSeconds = seconds;
                referenceLogZ = res.logZ;
            } else if (std::memcmp(&res.logZ, &referenceLogZ, sizeof(double)) != 0) {
                std::fprintf(stderr,
                             "BITWISE MISMATCH: %zu particles, %u threads: logZ %.17g vs "
                             "1-thread %.17g\n",
                             particles, threads, res.logZ, referenceLogZ);
                bitwiseOk = false;
            }
            const double rate = static_cast<double>(particles) / seconds;
            rows.push_back({particles, threads, seconds, rate, res.logZ,
                            oneThreadSeconds / seconds,
                            snap.counter(obs::Counter::LikCombineOps),
                            snap.counter(obs::Counter::LikMatricesRequested),
                            snap.counter(obs::Counter::LikMatricesComputed)});
            table.addRow({Table::integer(particles), Table::integer(threads),
                          Table::num(seconds, 3), Table::num(rate, 0),
                          Table::num(res.logZ, 3),
                          Table::num(oneThreadSeconds / seconds, 2)});
        }
    }
    table.print(std::cout);
    std::printf("\nlogZ bitwise thread-invariance: %s\n", bitwiseOk ? "PASS" : "FAIL");

    warnIfDirtyProvenance("BENCH_smc.json");
    std::ofstream json("BENCH_smc.json");
    json << "{\n  \"benchmark\": \"smc_scaling\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences\": " << nSeq << ", \"length\": " << length
         << ", \"scheme\": \"systematic\", \"bitwise_thread_invariant\": "
         << (bitwiseOk ? "true" : "false") << ", \"metrics_armed\": "
         << (metricsArmed ? "true" : "false") << "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"particles\": " << r.particles << ", \"threads\": " << r.threads
             << ", \"seconds\": " << r.seconds << ", \"particles_per_sec\": "
             << r.particlesPerSec << ", \"logZ\": " << r.logZ
             << ", \"speedup_vs_1t\": " << r.speedupVs1T
             << ", \"combine_ops\": " << r.combineOps
             << ", \"matrices_requested\": " << r.matricesRequested
             << ", \"matrices_computed\": " << r.matricesComputed << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote BENCH_smc.json (%zu rows)\n", rows.size());

    bool scalingOk = true;
    if (requireScaling > 0) {
        // Regression gate: for every particle count, the widest pool must
        // reach at least PCT% of the 1-thread rate.
        for (const Row& base : rows) {
            if (base.threads != 1) continue;
            const Row* widest = &base;
            for (const Row& r : rows)
                if (r.particles == base.particles && r.threads > widest->threads) widest = &r;
            if (widest == &base) continue;
            const double floor =
                base.particlesPerSec * static_cast<double>(requireScaling) / 100.0;
            const bool pass = widest->particlesPerSec >= floor;
            std::printf("scaling gate: %zu particles, %u-thread %.0f/s vs "
                        "1-thread %.0f/s (floor %.0f/s) %s\n",
                        base.particles, widest->threads,
                        widest->particlesPerSec, base.particlesPerSec, floor,
                        pass ? "PASS" : "FAIL");
            scalingOk = scalingOk && pass;
        }
    }
    return (bitwiseOk && scalingOk) ? 0 : 1;
}
