// mpcgs benchmark program.
//
//   perfbench --workload <em_gmh|em_mh|serve_online> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--tiny]
//
// --trace 0 is a timed run: tracing off, estimates repeated for --seconds,
// end-to-end metrics. --trace 1 is the traced run: per-layer metrics,
// registry counts and a Chrome trace in --workdir. Every output is checked;
// the last stdout line is the result object (see README.md).
#include <cstdio>
#include <exception>
#include <numeric>
#include <optional>
#include <string>

#include "traced.h"
#include "util/build_info.h"
#include "util/options.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups are short (about 0.3 ms, 3.5 ms with the online state) next to
/// their noise, and the host's speed drifts within a run. So a timed run
/// spends this share of its time on extra set-ups, spread between its
/// estimates, and setup_s is the median of all of them.
constexpr double kSetupShare = 1.0 / 30.0;

void runTimed(const Workload& wl, unsigned seed, const std::string& dir, double seconds,
              Report& rep, Ops& ops) {
    const std::vector<std::string> paths = writeInputs(wl, seed, wl.shape.datasets, dir);
    std::vector<double> setupS;
    auto setUpOnce = [&](std::size_t d) {
        SetupTimes t;
        Ready r = setUp(wl, paths[d], t, nullptr);
        setupS.push_back(t.total);
        return r;
    };
    std::vector<Ready> readies(paths.size());
    std::vector<std::size_t> setupBytes(paths.size());  ///< heap each set-up holds
    for (std::size_t d = 0; d < paths.size(); ++d) {
        const std::size_t live = heapLiveBytes();
        Ready r = setUpOnce(d);
        setupBytes[d] = heapLiveBytes() - live;
        readies[d] = std::move(r);
    }

    // Every estimate of a dataset must repeat its first output bitwise. The
    // first estimate of a dataset runs on a fresh set-up, as a single run of
    // the program does; its peak heap, above the bytes live when it starts,
    // plus the bytes its set-up holds, is the dataset's peak_heap_mb. The
    // other datasets' set-ups and the benchmark's bookkeeping are not in it.
    std::vector<std::optional<Output>> refs(paths.size());
    std::vector<double> firstPeakMiB;
    auto estimate = [&](std::size_t d) {
        const std::size_t base = heapResetPeak();
        Estimate e = runEstimate(wl, readies[d], readies[d].estimatePool(wl), dir, ops, nullptr);
        if (refs[d]) {
            ops.check(sameOutput(e.output(), *refs[d]), wl.name + ": repeated estimate differs");
        } else {
            firstPeakMiB.push_back(static_cast<double>(heapPeakBytes() - base + setupBytes[d]) /
                                   (1024.0 * 1024.0));
            refs[d] = e.output();
        }
        return e;
    };
    estimate(0);  // warm-up, not timed

    std::vector<double> estimateS, workPerS, updateMs;
    double setupWall = 0.0;
    std::size_t extraSetups = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0;
         i < readies.size() || estimateS.size() < 3 || secondsSince(t0) < seconds; ++i) {
        const Estimate e = estimate(i % readies.size());
        updateMs.insert(updateMs.end(), e.updateMs.begin(), e.updateMs.end());
        estimateS.push_back(e.seconds);
        workPerS.push_back(e.work / e.seconds);
        while (setupWall < kSetupShare * secondsSince(t0)) {
            const Clock::time_point s0 = Clock::now();
            setUpOnce(extraSetups++ % paths.size());
            setupWall += secondsSince(s0);
        }
    }

    const bool serve = wl.kind == Kind::ServeOnline;
    const char* updateWhat = serve ? "add_sequence replies" : "EM iteration E-steps";
    const Tail tail = tailAtLeast(updateMs);
    char note[128];
    std::snprintf(note, sizeof note, "p%.1f of %zu %s", tail.percentile, updateMs.size(),
                  updateWhat);
    rep.add("setup_s", median(setupS), "s", setupS.size(), "median of set-ups");
    rep.add("estimate_s", median(estimateS), "s", estimateS.size(), "median of estimates");
    rep.add("work_per_s", median(workPerS), "1/s", workPerS.size(),
            serve ? "accepted updates per second" : "genealogy samples per second");
    rep.add("update_p50_ms", median(updateMs), "ms", updateMs.size(),
            std::string("median of ") + updateWhat);
    rep.add("update_tail_ms", tail.value, "ms", updateMs.size(), note);
    rep.add("peak_heap_mb",
            std::accumulate(firstPeakMiB.begin(), firstPeakMiB.end(), 0.0) /
                static_cast<double>(firstPeakMiB.size()),
            "MiB", firstPeakMiB.size(), "mean over datasets of the first estimate's peak");
    rep.add("ops_ok_frac", ops.okFrac(), "fraction", ops.attempted, "checks passed");
}

int run(int argc, char** argv) {
    const mpcgs::Options args = mpcgs::Options::parse(argc, argv);
    const auto workload = args.get("workload");
    const auto workdir = args.get("workdir");
    if (!workload || !workdir || !args.has("seed") || !args.has("seconds")) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                     "--workdir DIR [--tiny]\n");
        return 2;
    }
    if (std::string(mpcgs::buildType()) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                     mpcgs::buildType());
        return 3;
    }
    const Workload wl = Workload::byName(*workload, args.getBool("tiny", false));
    const auto seed = static_cast<unsigned>(args.getInt("seed", 0));
    const double seconds = args.getDouble("seconds", 0.0);
    const bool traced = args.getInt("trace", 0) != 0;

    Report rep;
    rep.provenance("workload", "\"" + wl.name + "\"");
    rep.provenance("workload_threads", std::to_string(wl.threads));
    rep.provenance("hardware_threads", std::to_string(mpcgs::hardwareThreads()));
    char cores[32];
    std::snprintf(cores, sizeof cores, "%.3f", measureEffectiveCores());
    rep.provenance("effective_cores", cores);
    rep.provenance("build_type", "\"" + std::string(mpcgs::buildType()) + "\"");
    rep.provenance("git", "\"" + std::string(mpcgs::gitDescribe()) + "\"");
    rep.provenance("simd_doubles", std::to_string(mpcgs::simdWidthDoubles()));
    rep.provenance("shape", "\"" + std::to_string(wl.shape.sequences) + "x" +
                                std::to_string(wl.shape.length) + "\"");

    Ops ops;
    if (traced)
        runTraced(wl, writeInputs(wl, seed, 1, *workdir).front(), *workdir, rep, ops);
    else
        runTimed(wl, seed, *workdir, seconds, rep, ops);
    rep.print(ops);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
