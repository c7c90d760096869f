// Fault-injection matrix: every fail point registered in the binary is
// swept through a pipeline that reaches it, and each injected fault must
// surface as the documented typed error — never a crash, a hang, a silent
// success, or a stray .tmp file. The sweep iterates registeredPoints()
// itself, so adding a new site without teaching this matrix about it
// fails the test.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "rng/mt19937.h"
#include "seq/dataset.h"
#include "seq/seqgen.h"
#include "serve/serve.h"
#include "smc/online_update.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

class FaultInjectionTest : public ::testing::Test {
  protected:
    void SetUp() override {
        failpoint::reset();
        // Numeric fault dumps land in the test temp dir, not the cwd.
        ASSERT_EQ(setenv("MPCGS_FAULT_DIR", ::testing::TempDir().c_str(), 1), 0);
    }
    void TearDown() override {
        failpoint::reset();
        unsetenv("MPCGS_FAULT_DIR");
    }

    static std::string tempPath(const std::string& name) {
        return ::testing::TempDir() + name;
    }

    static bool exists(const std::string& path) {
        return std::ifstream(path).good();
    }

    static Alignment smallAlignment() {
        Mt19937 rng(3);
        const Genealogy g = simulateCoalescent(6, 1.0, rng);
        SeqGenOptions so;
        so.length = 100;
        const auto model = makeF84(2.0, kUniformFreqs);
        return simulateSequences(g, *model, so, rng);
    }

    static Dataset smallDataset() {
        Dataset ds;
        ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
        return ds;
    }

    /// Run the MCMC estimator with snapshots enabled (reaches the whole
    /// checkpoint WRITE path and mcmc.logpost).
    static void runMcmcWithCheckpoint(const std::string& ckpt,
                                      const RunSupervisor* supervisor = nullptr) {
        MpcgsOptions opts;
        opts.theta0 = 1.0;
        opts.emIterations = 2;
        opts.samplesPerIteration = 150;
        opts.strategy = Strategy::SerialMh;
        opts.seed = 77;
        opts.checkpointPath = ckpt;
        opts.checkpointIntervalTicks = 5;
        opts.supervisor = supervisor;
        estimateTheta(smallAlignment(), opts);
    }

    /// Produce a healthy snapshot, then resume with the reader fail point
    /// armed (reaches the checkpoint READ path).
    static void runResume(const std::string& ckpt) {
        MpcgsOptions opts;
        opts.theta0 = 1.0;
        opts.emIterations = 2;
        opts.samplesPerIteration = 150;
        opts.strategy = Strategy::SerialMh;
        opts.seed = 77;
        opts.checkpointPath = ckpt;
        opts.checkpointIntervalTicks = 5;
        opts.resume = true;
        estimateTheta(smallAlignment(), opts);
    }

    /// The SMC-EM: its E-step passes reach smc.weight and smc.collapse.
    static void runSmc() {
        SmcEstimateOptions opts;
        opts.theta0 = 1.0;
        opts.emIterations = 2;
        opts.smc.particles = 32;
        opts.seed = 19;
        estimateThetaSmc(smallDataset(), opts);
    }

    static void runPmmhSmall() {
        PmmhEstimateOptions opts;
        opts.theta0 = 1.0;
        opts.samples = 20;
        opts.pmmh.chains = 2;
        opts.pmmh.smc.particles = 16;
        opts.pmmh.seed = 23;
        runPmmh(smallDataset(), opts);
    }
};

TEST_F(FaultInjectionTest, EveryRegisteredPointFiresItsDocumentedTypedError) {
    const std::string ckpt = tempPath("fault_matrix.mpck");

    // One scenario per registered point: the spec to arm and a runner that
    // provably reaches the site, plus the error type the caller must see.
    enum class Expect { Checkpoint, Resume, Numeric, Injected, Interrupted, Io };
    struct Scenario {
        std::string spec;
        Expect expect;
        std::function<void()> run;
    };
    const auto mcmcWrite = [&] { runMcmcWithCheckpoint(ckpt); };
    std::map<std::string, Scenario> scenarios;
    scenarios["checkpoint.open"] =
        Scenario{"checkpoint.open=once:errno=EACCES", Expect::Checkpoint, mcmcWrite};
    scenarios["checkpoint.write"] =
        Scenario{"checkpoint.write=once:errno=ENOSPC", Expect::Checkpoint, mcmcWrite};
    scenarios["checkpoint.fsync"] =
        Scenario{"checkpoint.fsync=once:errno=ENOSPC", Expect::Checkpoint, mcmcWrite};
    scenarios["checkpoint.rename"] =
        Scenario{"checkpoint.rename=once:errno=EIO", Expect::Checkpoint, mcmcWrite};
    // READ faults arm every(1), not once: a single read failure is
    // deliberately survivable (the resume falls back to the .prev
    // generation), so forcing the typed ResumeError needs both
    // generations to fail.
    scenarios["checkpoint.read.open"] =
        Scenario{"checkpoint.read.open=every(1):errno=EACCES", Expect::Resume,
                 [&] { runResume(ckpt); }};
    scenarios["checkpoint.read"] = Scenario{"checkpoint.read=every(1):errno=EIO",
                                            Expect::Resume, [&] { runResume(ckpt); }};
    scenarios["mcmc.logpost"] =
        Scenario{"mcmc.logpost=once:nan", Expect::Numeric, [&] { runMcmcWithCheckpoint(ckpt); }};
    scenarios["smc.weight"] = Scenario{"smc.weight=once:nan", Expect::Numeric, [] { runSmc(); }};
    scenarios["smc.collapse"] =
        Scenario{"smc.collapse=once:nan", Expect::Numeric, [] { runSmc(); }};
    scenarios["pmmh.logz"] =
        Scenario{"pmmh.logz=once:nan", Expect::Numeric, [] { runPmmhSmall(); }};
    // Online/serve sites run against a small warm posterior built from the
    // first 5 sequences; the 6th is the grafted arrival.
    const auto onlineState = [] {
        const Alignment full = smallAlignment();
        const std::vector<Sequence> head(full.sequences().begin(),
                                         full.sequences().end() - 1);
        SmcOptions smc;
        smc.particles = 16;
        return initOnlineState(Alignment(head), 1.0, smc, "F81", 5);
    };
    scenarios["online.reweight"] =
        Scenario{"online.reweight=once:nan", Expect::Numeric, [&] {
                     OnlineState st = onlineState();
                     OnlineSmcUpdater updater(st, OnlineOptions{});
                     updater.addSequence(smallAlignment().sequences().back());
                 }};
    scenarios["serve.accept"] = Scenario{"serve.accept=once", Expect::Injected, [&] {
                                             ServeSession session(onlineState(), "",
                                                                  OnlineOptions{});
                                             session.handleLine("{\"job\":\"logz\"}");
                                         }};
    // Metrics/trace emission: a lost snapshot of a finished run is an
    // operational I/O fault (exit 6), same slot as checkpoint I/O.
    scenarios["obs.emit"] =
        Scenario{"obs.emit=once:errno=ENOSPC", Expect::Io,
                 [&] { obs::writeMetricsFile(tempPath("fault_metrics.json")); }};
    scenarios["supervisor.stop"] = Scenario{"supervisor.stop=once", Expect::Interrupted, [&] {
                                                RunSupervisor::Config cfg;
                                                cfg.handleSignals = false;
                                                RunSupervisor sv(cfg);
                                                runMcmcWithCheckpoint(ckpt, &sv);
                                            }};

    for (const auto& point : failpoint::registeredPoints()) {
        const auto it = scenarios.find(point.name);
        ASSERT_NE(it, scenarios.end())
            << "fail point '" << point.name << "' has no matrix scenario — add one";
        const Scenario& sc = it->second;

        // The resume scenarios need a healthy snapshot on disk first; the
        // write scenarios need a clean slate so litter checks mean something.
        failpoint::reset();
        std::remove(ckpt.c_str());
        std::remove((ckpt + ".prev").c_str());
        std::remove((ckpt + ".tmp").c_str());
        if (sc.expect == Expect::Resume) runMcmcWithCheckpoint(ckpt);

        failpoint::configure(sc.spec);
        try {
            sc.run();
            FAIL() << "armed fail point '" << point.name << "' did not surface an error";
        } catch (const InterruptedError& e) {
            EXPECT_EQ(sc.expect, Expect::Interrupted) << point.name << ": " << e.what();
        } catch (const ResumeError& e) {
            EXPECT_EQ(sc.expect, Expect::Resume) << point.name << ": " << e.what();
        } catch (const NumericError& e) {
            EXPECT_EQ(sc.expect, Expect::Numeric) << point.name << ": " << e.what();
        } catch (const CheckpointError& e) {
            EXPECT_EQ(sc.expect, Expect::Checkpoint) << point.name << ": " << e.what();
        } catch (const IoError& e) {
            EXPECT_EQ(sc.expect, Expect::Io) << point.name << ": " << e.what();
        } catch (const InjectedFaultError& e) {
            EXPECT_EQ(sc.expect, Expect::Injected) << point.name << ": " << e.what();
        }
        // No failure path may leave a stale temporary behind.
        EXPECT_FALSE(exists(ckpt + ".tmp"))
            << "fail point '" << point.name << "' littered " << ckpt << ".tmp";
    }
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
}

TEST_F(FaultInjectionTest, InjectedIoErrorsCarryErrnoDetail) {
    const std::string ckpt = tempPath("fault_errno.mpck");
    failpoint::configure("checkpoint.fsync=once:errno=ENOSPC");
    try {
        runMcmcWithCheckpoint(ckpt);
        FAIL() << "injected ENOSPC did not surface";
    } catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("No space left"), std::string::npos)
            << "strerror detail missing: " << what;
        EXPECT_NE(what.find("28"), std::string::npos) << "errno number missing: " << what;
    }
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
}

TEST_F(FaultInjectionTest, ErrorActionRaisesInjectedFaultAtNumericSites) {
    failpoint::configure("mcmc.logpost=once");  // default action: error
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 1;
    opts.samplesPerIteration = 100;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 7;
    EXPECT_THROW(estimateTheta(smallAlignment(), opts), InjectedFaultError);
}

TEST_F(FaultInjectionTest, NumericFaultDumpsDiagnosticState) {
    const std::string dump = ::testing::TempDir() + "mpcgs_numeric_fault_mcmc.logpost.txt";
    std::remove(dump.c_str());
    failpoint::configure("mcmc.logpost=once:nan");
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 1;
    opts.samplesPerIteration = 100;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 7;
    try {
        estimateTheta(smallAlignment(), opts);
        FAIL() << "poisoned log-posterior did not raise";
    } catch (const NumericError& e) {
        // The error names the dump; the dump names the state.
        EXPECT_NE(std::string(e.what()).find("mcmc.logpost"), std::string::npos);
        ASSERT_TRUE(std::ifstream(dump).good()) << "diagnostic dump missing: " << dump;
        std::ifstream in(dump);
        std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
        EXPECT_NE(contents.find("theta"), std::string::npos);
        EXPECT_NE(contents.find("seed"), std::string::npos);
        EXPECT_NE(contents.find("genealogy"), std::string::npos);
    }
    std::remove(dump.c_str());
}

TEST_F(FaultInjectionTest, NumericFaultDumpAfterResumeNamesTheAbsoluteTick) {
    const std::string ckpt = tempPath("fault_resume_tick.mpck");
    const std::string dump = ::testing::TempDir() + "mpcgs_numeric_fault_mcmc.logpost.txt";
    std::remove(dump.c_str());
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 1;
    opts.samplesPerIteration = 150;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 77;
    opts.checkpointPath = ckpt;
    opts.checkpointIntervalTicks = 5;

    // Evaluation 1 is the EM-boundary poll and 2..16 the 15 burn-in ticks;
    // evaluation 41 stops the run with 24 sampling ticks done.
    failpoint::configure("supervisor.stop=after(40)");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    MpcgsOptions part = opts;
    part.supervisor = &sv;
    EXPECT_THROW(estimateTheta(smallAlignment(), part), InterruptedError);

    // The resumed run checks ticks 25, 26, ...: the sixth check poisons 30.
    failpoint::reset();
    failpoint::configure("mcmc.logpost=after(5):nan");
    MpcgsOptions rest = opts;
    rest.resume = true;
    try {
        estimateTheta(smallAlignment(), rest);
        FAIL() << "poisoned log-posterior did not raise";
    } catch (const NumericError& e) {
        EXPECT_NE(std::string(e.what()).find("tick 30)"), std::string::npos) << e.what();
        std::ifstream in(dump);
        const std::string contents((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
        EXPECT_NE(contents.find("\ntick: 30\n"), std::string::npos) << contents;
    }
    std::remove(dump.c_str());
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".prev").c_str());
}

}  // namespace
}  // namespace mpcgs
