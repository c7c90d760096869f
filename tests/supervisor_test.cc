// Run supervision: cooperative SIGTERM/SIGINT stops, wall-time deadlines,
// checkpoint-write retry with backoff, exit-code taxonomy, and the
// headline guarantee — an interrupted run (via the deterministic
// supervisor.stop fail point, a stand-in for a signal at an exact tick)
// leaves a checkpoint from which --resume continues bitwise-identically,
// for all four estimator entry points.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/structured_estimator.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "rng/mt19937.h"
#include "seq/dataset.h"
#include "seq/seqgen.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

class SupervisorTest : public ::testing::Test {
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }

    static std::string tempPath(const std::string& name) {
        return ::testing::TempDir() + name;
    }

    static Alignment smallAlignment() {
        Mt19937 rng(3);
        const Genealogy g = simulateCoalescent(6, 1.0, rng);
        SeqGenOptions so;
        so.length = 120;
        const auto model = makeF84(2.0, kUniformFreqs);
        return simulateSequences(g, *model, so, rng);
    }

    /// Two-deme data simulated under the structured coalescent.
    static Alignment twoDemeAlignment(const std::vector<int>& demes) {
        Mt19937 rng(43);
        MigrationModel truth(2, 1.0, 0.5);
        const StructuredGenealogy g = simulateStructuredCoalescent(demes, truth, rng);
        SeqGenOptions so;
        so.length = 150;
        const auto model = makeF84(2.0, kUniformFreqs);
        return simulateSequences(g.tree(), *model, so, rng);
    }

    /// The structured run the interrupt tests use.
    static StructuredOptions structuredOptions() {
        StructuredOptions opts;
        opts.init = MigrationModel(2, 1.0, 1.0);
        opts.emIterations = 2;
        opts.samplesPerIteration = 150;
        opts.chains = 2;
        opts.seed = 4242;
        return opts;
    }

    /// The MCMC run the layout tests use: serial MH, so each E-step is
    /// 20 burn-in and 200 sampling ticks, and each EM iteration polls
    /// the stop flag 221 times (the EM boundary, then one poll per tick).
    static MpcgsOptions mcmcOptions() {
        MpcgsOptions opts;
        opts.theta0 = 1.0;
        opts.emIterations = 2;
        opts.samplesPerIteration = 200;
        opts.strategy = Strategy::SerialMh;
        opts.seed = 77;
        return opts;
    }

    /// The PMMH run the interrupt tests use.
    static PmmhEstimateOptions pmmhOptions() {
        PmmhEstimateOptions opts;
        opts.theta0 = 1.0;
        opts.samples = 40;
        opts.pmmh.chains = 2;
        opts.pmmh.smc.particles = 32;
        opts.pmmh.seed = 23;
        return opts;
    }
};

TEST_F(SupervisorTest, StartsWithNoStopPending) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_TRUE(sv.stopReason().empty());
}

TEST_F(SupervisorTest, SigtermSetsTheStopFlagAndLatches) {
    RunSupervisor sv;  // installs handlers
    ASSERT_FALSE(sv.stopRequested());
    std::raise(SIGTERM);
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_EQ(sv.stopReason(), "SIGTERM");
    // Latched: still stopped on every later poll.
    EXPECT_TRUE(sv.stopRequested());
}

TEST_F(SupervisorTest, SigintIsAlsoCooperative) {
    RunSupervisor sv;
    std::raise(SIGINT);
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_EQ(sv.stopReason(), "SIGINT");
}

TEST_F(SupervisorTest, WallTimeDeadlineTripsTheFlag) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.maxWallSeconds = 0.05;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_NE(sv.stopReason().find("wall-time"), std::string::npos);
}

TEST_F(SupervisorTest, StopFailpointRequestsADeterministicStop) {
    failpoint::configure("supervisor.stop=after(2)");
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_TRUE(sv.stopRequested());  // third poll = evaluation 3 = after(2)
    EXPECT_NE(sv.stopReason().find("injected"), std::string::npos);
}

TEST_F(SupervisorTest, CheckpointRetrySucceedsAfterTransientFailures) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.checkpointRetries = 3;
    cfg.backoffInitialMs = 1.0;  // keep the test fast
    cfg.backoffMaxMs = 4.0;
    RunSupervisor sv(cfg);
    int attempts = 0;
    sv.writeCheckpointWithRetry([&] {
        if (++attempts <= 2) throw CheckpointError("transient: disk momentarily full");
    });
    EXPECT_EQ(attempts, 3);
}

TEST_F(SupervisorTest, CheckpointRetryGivesUpAndRethrows) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.checkpointRetries = 2;
    cfg.backoffInitialMs = 1.0;
    cfg.backoffMaxMs = 2.0;
    RunSupervisor sv(cfg);
    int attempts = 0;
    EXPECT_THROW(sv.writeCheckpointWithRetry([&] {
        ++attempts;
        throw CheckpointError("persistent failure");
    }),
                 CheckpointError);
    EXPECT_EQ(attempts, 3);  // 1 + 2 retries
}

TEST_F(SupervisorTest, WithCheckpointRetryRunsDirectlyWithoutASupervisor) {
    int attempts = 0;
    withCheckpointRetry(nullptr, [&] { ++attempts; });
    EXPECT_EQ(attempts, 1);
    EXPECT_THROW(
        withCheckpointRetry(nullptr, [] { throw CheckpointError("no retry, no rescue"); }),
        CheckpointError);
}

TEST_F(SupervisorTest, ExitCodeTaxonomyIsStable) {
    EXPECT_EQ(exitCodeFor(InterruptedError("stopped", true)), kExitInterrupted);
    EXPECT_EQ(exitCodeFor(NumericError("bad logL")), kExitNumericFault);
    EXPECT_EQ(exitCodeFor(ResumeError("snapshot gone")), kExitResumeFailed);
    EXPECT_EQ(exitCodeFor(CheckpointError("disk full")), kExitIoFault);
    EXPECT_EQ(exitCodeFor(ConfigError("bad flag")), kExitUsage);
    EXPECT_EQ(exitCodeFor(ParseError("bad file")), kExitUsage);
    EXPECT_EQ(exitCodeFor(std::runtime_error("anything else")), kExitFailure);
    EXPECT_EQ(exitCodeFor(InjectedFaultError("mcmc.logpost")), kExitFailure);
}

// --- interrupt + bitwise-identical resume, all four estimators ---------

TEST_F(SupervisorTest, McmcInterruptThenResumeIsBitwiseIdentical) {
    const Alignment aln = smallAlignment();
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 2;
    opts.samplesPerIteration = 200;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 77;
    const MpcgsResult baseline = estimateTheta(aln, opts);

    const std::string path = tempPath("sv_mcmc.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(60)");
    MpcgsOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 5;
    part.supervisor = &sv;
    try {
        estimateTheta(aln, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    // The final snapshot must be a valid, CRC-clean current-version file.
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    MpcgsOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const MpcgsResult resumed = estimateTheta(aln, rest);
    EXPECT_EQ(resumed.theta, baseline.theta);
    ASSERT_EQ(resumed.history.size(), baseline.history.size());
    for (std::size_t i = 0; i < baseline.history.size(); ++i)
        EXPECT_EQ(resumed.history[i].thetaAfter, baseline.history[i].thetaAfter);
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, SmcInterruptThenResumeIsBitwiseIdentical) {
    Dataset ds;
    ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    SmcEstimateOptions opts;
    opts.theta0 = 1.0;
    opts.smc.particles = 64;
    opts.seed = 19;
    const SmcEstimateResult baseline = estimateThetaSmc(ds, opts);

    const std::string path = tempPath("sv_smc.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(6)");
    SmcEstimateOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalEvals = 4;
    part.supervisor = &sv;
    try {
        estimateThetaSmc(ds, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    SmcEstimateOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const SmcEstimateResult resumed = estimateThetaSmc(ds, rest);
    EXPECT_EQ(resumed.theta, baseline.theta);
    EXPECT_EQ(resumed.logZAtMax, baseline.logZAtMax);
    EXPECT_EQ(resumed.support.lower, baseline.support.lower);
    EXPECT_EQ(resumed.support.upper, baseline.support.upper);
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, PmmhInterruptThenResumeIsBitwiseIdentical) {
    Dataset ds;
    ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    const PmmhEstimateOptions opts = pmmhOptions();
    const PmmhEstimateResult baseline = runPmmh(ds, opts);

    const std::string path = tempPath("sv_pmmh.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(8)");
    PmmhEstimateOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 3;
    part.supervisor = &sv;
    try {
        runPmmh(ds, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    PmmhEstimateOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const PmmhEstimateResult resumed = runPmmh(ds, rest);
    EXPECT_EQ(resumed.posteriorMean, baseline.posteriorMean);
    EXPECT_EQ(resumed.posteriorSd, baseline.posteriorSd);
    ASSERT_EQ(resumed.thetaChainMajor.size(), baseline.thetaChainMajor.size());
    for (std::size_t i = 0; i < baseline.thetaChainMajor.size(); ++i)
        EXPECT_EQ(resumed.thetaChainMajor[i], baseline.thetaChainMajor[i]);
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, StructuredInterruptThenResumeIsBitwiseIdentical) {
    const std::vector<int> demes{0, 0, 0, 1, 1, 1};
    const Alignment aln = twoDemeAlignment(demes);
    const StructuredOptions opts = structuredOptions();
    const StructuredResult baseline = estimateStructured(aln, demes, opts);

    const std::string path = tempPath("sv_structured.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(40)");
    StructuredOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 5;
    part.supervisor = &sv;
    try {
        estimateStructured(aln, demes, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    StructuredOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const StructuredResult resumed = estimateStructured(aln, demes, rest);
    EXPECT_EQ(resumed.estimate, baseline.estimate);
    ASSERT_EQ(resumed.history.size(), baseline.history.size());
    for (std::size_t i = 0; i < baseline.history.size(); ++i)
        EXPECT_EQ(resumed.history[i].after, baseline.history[i].after);
    std::remove(path.c_str());
}

// --- snapshot layout of the one-slot sampling phases ------------------
//
// The interrupt snapshots of the structured and PMMH estimators, walked
// frame by frame with a bare CheckpointReader: this pins the section order
// and the progress words apart from the reader that --resume uses. Only
// integer words are asserted; floating-point payloads differ in the last
// bits between native and generic builds.

TEST_F(SupervisorTest, StructuredInterruptSnapshotLayoutIsPinned) {
    const std::vector<int> demes{0, 0, 0, 1, 1, 1};
    const std::string path = tempPath("sv_structured_layout.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    // Evaluation 1 is the EM-boundary poll and 2..16 the 15 burn-in ticks;
    // evaluation 41 stops the run before sampling tick 25.
    failpoint::configure("supervisor.stop=after(40)");
    StructuredOptions part = structuredOptions();
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 5;
    part.supervisor = &sv;
    EXPECT_THROW(estimateStructured(twoDemeAlignment(demes), demes, part), InterruptedError);

    CheckpointReader r(path);
    EXPECT_EQ(r.nextSection(), "fingerprint");
    ASSERT_EQ(r.nextSection(), "context");
    EXPECT_EQ(r.u64(), 0u);             // EM iteration
    EXPECT_EQ(r.doubles().size(), 2u);  // driving theta_k
    EXPECT_EQ(r.doubles().size(), 4u);  // driving M_kl
    EXPECT_EQ(r.u64(), 0u);             // history records
    readStructuredGenealogy(r, 2);      // the iteration's warm start
    EXPECT_EQ(r.u32(), 1u);             // mid-iteration
    EXPECT_EQ(r.u64(), 15u);            // burnDone
    EXPECT_EQ(r.u64(), 24u);            // sampleDone
    EXPECT_EQ(r.u32(), 0u);             // stopped
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.nextSection(), "sampler");
    EXPECT_EQ(r.nextSection(), "sink");
    EXPECT_EQ(r.nextSection(), "monitor");
    EXPECT_EQ(r.nextSection(), "");
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, PmmhInterruptSnapshotLayoutIsPinned) {
    Dataset ds;
    ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    const std::string path = tempPath("sv_pmmh_layout.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    // 40 samples over 2 chains cap sampling at 20 ticks, 2 of burn-in;
    // evaluations 1..2 are the burn-in ticks and evaluation 9 stops the
    // run before sampling tick 7.
    failpoint::configure("supervisor.stop=after(8)");
    PmmhEstimateOptions part = pmmhOptions();
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 3;
    part.supervisor = &sv;
    EXPECT_THROW(runPmmh(ds, part), InterruptedError);

    CheckpointReader r(path);
    EXPECT_EQ(r.nextSection(), "fingerprint");
    ASSERT_EQ(r.nextSection(), "context");
    EXPECT_EQ(r.u64(), 2u);  // planned burn-in ticks
    EXPECT_EQ(r.u64(), 2u);  // burnDone
    EXPECT_EQ(r.u64(), 6u);  // sampleDone
    EXPECT_EQ(r.u32(), 0u);  // stopped
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.nextSection(), "sampler");
    EXPECT_EQ(r.nextSection(), "monitor");
    EXPECT_EQ(r.nextSection(), "");
    std::remove(path.c_str());
}

/// Interrupt `opts` over `ds` on stop-flag evaluation `after + 1` and walk
/// the snapshot: sections sampler.<l>, sink.<l>, monitor.<l> (also at
/// L = 1) after the context words of core/em_run.h.
void expectMcmcInterruptLayout(const Dataset& ds, MpcgsOptions opts, int after,
                               std::uint64_t em, std::uint64_t burnDone,
                               std::uint64_t sampleDone) {
    const std::string path = ::testing::TempDir() + "sv_mcmc_layout.mpck";
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(" + std::to_string(after) + ")");
    opts.checkpointPath = path;
    opts.checkpointIntervalTicks = 5;
    opts.supervisor = &sv;
    EXPECT_THROW(estimateTheta(ds, opts), InterruptedError);
    failpoint::reset();

    const std::size_t L = ds.locusCount();
    CheckpointReader r(path);
    EXPECT_EQ(r.nextSection(), "fingerprint");
    ASSERT_EQ(r.nextSection(), "context");
    EXPECT_EQ(r.u64(), em);  // EM iteration
    r.f64();                 // driving theta
    ASSERT_EQ(r.u64(), em);  // history records, one per finished iteration
    for (std::uint64_t i = 0; i < em; ++i) {
        for (int k = 0; k < 5; ++k) r.f64();  // thetaBefore .. moveRate
        EXPECT_EQ(r.u64(), 200u * L);         // samples summed over loci
        r.f64();                              // rhat
        r.f64();                              // ess
        EXPECT_EQ(r.u32(), 0u);               // stoppedEarly
    }
    for (std::size_t l = 0; l < L; ++l) readGenealogy(r);  // warm starts
    EXPECT_EQ(r.u32(), 1u);                                // mid-iteration
    EXPECT_EQ(r.u64(), burnDone);
    for (std::size_t l = 0; l < L; ++l) {
        EXPECT_EQ(r.u64(), sampleDone);
        EXPECT_EQ(r.u32(), 0u);  // stopped
    }
    EXPECT_EQ(r.remaining(), 0u);
    for (const char* kind : {"sampler.", "sink.", "monitor."})
        for (std::size_t l = 0; l < L; ++l)
            EXPECT_EQ(r.nextSection(), kind + std::to_string(l));
    EXPECT_EQ(r.nextSection(), "");
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

TEST_F(SupervisorTest, McmcInterruptSnapshotLayoutIsPinned) {
    // L = 1: evaluation 1 is the EM-boundary poll and 2..21 the 20 burn-in
    // ticks; evaluation 41 stops the run before sampling tick 20.
    Dataset one;
    one.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    expectMcmcInterruptLayout(one, mcmcOptions(), 40, 0, 20, 19);

    // L = 2, in the second E-step: EM iteration 0 takes evaluations
    // 1..221, and evaluation 252 stops the run before sampling tick 10
    // of iteration 1 (boundary poll 222, burn-in 223..242).
    Dataset two = one;
    two.add(Locus{"locus1", twoDemeAlignment({0, 0, 0, 1, 1, 1}), 1.0, {}});
    expectMcmcInterruptLayout(two, mcmcOptions(), 251, 1, 20, 9);
}

// --- same-seed snapshots are byte-identical but for wall time ----------

/// Section frames of a v5 snapshot, split from its raw bytes (frame
/// format in mcmc/checkpoint.h; the 8-byte header is skipped).
struct Frame {
    std::string name;
    std::uint32_t crc = 0;
    std::vector<char> payload;
};

std::vector<Frame> readFrames(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> b((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::vector<Frame> frames;
    std::size_t pos = 8;
    const auto take = [&](auto& v) {
        std::memcpy(&v, b.data() + pos, sizeof v);
        pos += sizeof v;
    };
    while (pos < b.size()) {
        Frame f;
        std::uint32_t marker = 0;
        std::uint64_t nameLen = 0, payloadLen = 0;
        take(marker);
        EXPECT_EQ(marker, kSectionMarker);
        take(nameLen);
        f.name.assign(b.data() + pos, nameLen);
        pos += nameLen;
        take(payloadLen);
        take(f.crc);
        f.payload.assign(b.begin() + static_cast<std::ptrdiff_t>(pos),
                         b.begin() + static_cast<std::ptrdiff_t>(pos + payloadLen));
        pos += payloadLen;
        frames.push_back(std::move(f));
    }
    return frames;
}

/// Zero the `seconds` word of every EM history record in a context
/// payload whose record count sits at byte `countAt`.
void maskSeconds(std::vector<char>& payload, std::size_t countAt, std::size_t recordBytes,
                 std::size_t secondsAt) {
    std::uint64_t n = 0;
    std::memcpy(&n, payload.data() + countAt, sizeof n);
    EXPECT_GE(n, 1u);
    for (std::uint64_t i = 0; i < n; ++i)
        std::memset(payload.data() + countAt + 8 + i * recordBytes + secondsAt, 0, 8);
}

/// Two same-seed snapshots: every section byte-identical (CRC included),
/// the context once the history's seconds words are masked.
void expectSameButSeconds(const std::string& a, const std::string& b, std::size_t countAt,
                          std::size_t recordBytes, std::size_t secondsAt) {
    std::vector<Frame> fa = readFrames(a);
    std::vector<Frame> fb = readFrames(b);
    ASSERT_EQ(fa.size(), fb.size());
    ASSERT_GE(fa.size(), 2u);
    for (std::size_t i = 0; i < fa.size(); ++i) {
        ASSERT_EQ(fa[i].name, fb[i].name);
        if (fa[i].name == "context") {
            maskSeconds(fa[i].payload, countAt, recordBytes, secondsAt);
            maskSeconds(fb[i].payload, countAt, recordBytes, secondsAt);
        } else {
            EXPECT_EQ(fa[i].crc, fb[i].crc) << fa[i].name;
        }
        EXPECT_EQ(fa[i].payload, fb[i].payload) << fa[i].name;
    }
}

/// Run `estimate` twice with the same options, each stopped at the second
/// EM iteration's boundary poll (evaluation `after + 1`), so the latest
/// snapshot is the EM-boundary one and `.prev` the first E-step's last.
template <class Options, class Estimate>
void expectRepeatableBoundarySnapshots(Options opts, int after, Estimate estimate,
                                       std::size_t countAt, std::size_t recordBytes,
                                       std::size_t secondsAt) {
    std::string paths[2];
    for (int run = 0; run < 2; ++run) {
        paths[run] = ::testing::TempDir() + "sv_repeat" + std::to_string(run) + ".mpck";
        RunSupervisor::Config svCfg;
        svCfg.handleSignals = false;
        RunSupervisor sv(svCfg);
        failpoint::configure("supervisor.stop=after(" + std::to_string(after) + ")");
        opts.checkpointPath = paths[run];
        opts.checkpointIntervalTicks = 5;
        opts.supervisor = &sv;
        try {
            estimate(opts);
            FAIL() << "injected stop did not interrupt the run";
        } catch (const InterruptedError& e) {
            EXPECT_TRUE(e.checkpointWritten());
        }
        failpoint::reset();
    }
    expectSameButSeconds(paths[0], paths[1], countAt, recordBytes, secondsAt);
    std::ifstream pa(paths[0] + ".prev", std::ios::binary);
    std::ifstream pb(paths[1] + ".prev", std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(pa), {}),
              std::string(std::istreambuf_iterator<char>(pb), {}));
    for (const std::string& p : paths) {
        std::remove(p.c_str());
        std::remove((p + ".prev").c_str());
    }
}

TEST_F(SupervisorTest, McmcSameSeedSnapshotsDifferOnlyInSeconds) {
    // Context: u64 EM index, f64 theta, u64 history count at byte 16; a
    // record is 5 f64, u64 samples, 2 f64, u32 (68 bytes), seconds at 24.
    const Alignment aln = smallAlignment();
    expectRepeatableBoundarySnapshots(
        mcmcOptions(), 221, [&](const MpcgsOptions& o) { estimateTheta(aln, o); }, 16, 68,
        24);
}

TEST_F(SupervisorTest, StructuredSameSeedSnapshotsDifferOnlyInSeconds) {
    // 15 burn-in + 75 sampling ticks per E-step: 91 polls per iteration.
    // Context: u64 EM index, a 2-deme model (u64 + 2 f64, u64 + 4 f64 =
    // 64 bytes), history count at byte 72; a record is two models, 3 f64,
    // u64, 2 f64, u32 (180 bytes), seconds at 136.
    const std::vector<int> demes{0, 0, 0, 1, 1, 1};
    const Alignment aln = twoDemeAlignment(demes);
    expectRepeatableBoundarySnapshots(
        structuredOptions(), 91,
        [&](const StructuredOptions& o) { estimateStructured(aln, demes, o); }, 72, 180, 136);
}

}  // namespace
}  // namespace mpcgs
