// The benchmark workloads: their shapes, input generation, set-up,
// one complete estimate through the entry point a user calls, the output
// checks, and the replays the traced run and the checks share.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.h"
#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "report.h"
#include "smc/online_update.h"
#include "smc/smc_sampler.h"

namespace perfbench {

enum class Kind { EmGmh, EmMh, ServeOnline };

/// Problem sizes. `full` is the benchmark; `tiny` is the self-test's.
struct Shape {
    int sequences = 12;
    std::size_t length = 400;
    std::size_t emIterations = 4;
    std::size_t emSamples = 4000;  ///< genealogy samples per EM iteration
    std::size_t smcParticles = 256;  ///< the SMC and backend-flush probes
    int onlineInit = 8;            ///< sequences in the warm online state
    std::size_t onlineAdds = 3;    ///< adds per serve session (K)
    std::size_t onlineParticles = 64;  ///< 4 blocks of 16: balanced on 2 threads
    /// Datasets per timed run. One dataset's timings and heap depend on its
    /// tree and pattern count, so a timed run cycles through several, all
    /// derived from the run's seed, and its figures mix them.
    int datasets = 16;

    static Shape full() { return {}; }
    static Shape tiny();
};

struct Workload {
    std::string name;
    Kind kind = Kind::EmGmh;
    unsigned threads = 1;
    bool tiny = false;  ///< the self-test's shapes and repetition counts
    Shape shape;

    /// Throws std::invalid_argument for an unknown name.
    static Workload byName(const std::string& name, bool tiny);
    bool isEm() const { return kind == Kind::EmGmh || kind == Kind::EmMh; }
    /// The sampler spec of the EM workloads; the GMH spec for the others.
    mpcgs::SamplerSpec samplerSpec() const;
};

/// Data are simulated at this theta, and every estimator starts from it.
inline constexpr double kTrueTheta = 1.0;
/// The program's own seed. The benchmark seed only shapes the input file.
inline constexpr std::uint64_t kProgramSeed = 20160408;
/// Every estimate must lie within this factor of kTrueTheta.
inline constexpr double kThetaTolerance = 10.0;

/// Simulate `count` alignments from `seed` (coalescent tree, then F84
/// sequences) and write them as PHYLIP to `<dir>/data<i>.phy`.
std::vector<std::string> writeInputs(const Workload& wl, unsigned seed, int count,
                                     const std::string& dir);

/// A ready estimator: everything set-up builds from the file on disk.
struct Ready {
    mpcgs::Alignment aln;
    std::unique_ptr<mpcgs::SubstModel> model;
    std::unique_ptr<mpcgs::DataLikelihood> lik;
    mpcgs::Genealogy init;
    std::unique_ptr<mpcgs::ThreadPool> pool;
    std::optional<mpcgs::OnlineState> online;  ///< serve_online only
    std::vector<mpcgs::Sequence> adds;         ///< serve_online: the K sequences to add

    /// The pool the workload's estimate runs on (none for em_mh).
    mpcgs::ThreadPool* estimatePool(const Workload& wl) const;
};

/// Seconds spent in each set-up stage.
struct SetupTimes {
    double parse = 0, likBuild = 0, initTree = 0, spawn = 0, onlineInit = 0, total = 0;
};

Ready setUp(const Workload& wl, const std::string& dataPath, SetupTimes& t, SpanLog* spans);

mpcgs::SmcOptions smcOptions(std::size_t particles);

/// What the checks compare of an estimate: two estimates of the same
/// inputs must agree on it bitwise.
struct Output {
    double theta = 0.0;
    double logZ = 0.0;  ///< serve_online
    double work = 0.0;
};
bool sameOutput(const Output& a, const Output& b);

/// One complete estimate and what it produced.
struct Estimate {
    double seconds = 0.0;
    double theta = 0.0;
    double work = 0.0;                ///< samples, or accepted updates (serve)
    std::vector<double> updateMs;     ///< EM iteration E-steps, or add replies
    std::optional<mpcgs::MpcgsResult> em;
    double logZ = 0.0;                ///< serve_online

    Output output() const { return {theta, logZ, work}; }
};

/// Run one estimate on `pool` and record one operation (the estimate with
/// its checks) in `ops`; serve_online also records one operation per job.
Estimate runEstimate(const Workload& wl, const Ready& ready, mpcgs::ThreadPool* pool,
                     const std::string& dir, Ops& ops, SpanLog* spans);

/// The serve protocol line that adds `s`, and whether a reply reports success.
std::string addSequenceJob(const mpcgs::Sequence& s);
bool replyOk(const std::string& reply);

/// A replay of the curve maximization an estimate ran, through a counting,
/// timing decorator: every logL call the maximizer makes is counted and
/// timed.
struct CurveReplay {
    double theta = 0.0;
    std::size_t calls = 0;           ///< logL calls by the maximizer
    std::vector<double> evalMs;      ///< time of each evaluation
};

/// The final M-step of an EM estimate, over the curve its last E-step left.
CurveReplay replayFinalMstep(const mpcgs::MpcgsResult& result, mpcgs::ThreadPool* pool,
                             SpanLog* spans);

/// Effective cores: N spinning threads against one, N = hardware threads.
double measureEffectiveCores();

}  // namespace perfbench
