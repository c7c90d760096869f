// Run supervision: cooperative SIGTERM/SIGINT stops, wall-time deadlines,
// checkpoint-write retry with backoff, exit-code taxonomy, and the
// headline guarantee — an interrupted run (via the deterministic
// supervisor.stop fail point, a stand-in for a signal at an exact tick)
// leaves a checkpoint from which --resume continues bitwise-identically,
// for all four estimator entry points.
#include <chrono>
#include <csignal>
#include <cstdio>
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

}  // namespace
}  // namespace mpcgs
