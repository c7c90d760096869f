// The observability layer (src/obs/): registry no-op-when-unarmed and
// cross-thread counter folding, histogram bucket/quantile math, the JSON
// and Prometheus emitters, the trace recorder's Chrome trace_event
// format, obs.emit fault semantics — and the layer's central promise:
// arming metrics NEVER perturbs an estimate (bitwise logZ equality armed
// vs unarmed, and thread-count invariance with metrics on).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "lik/felsenstein.h"
#include "lik/lik_backend.h"
#include "mcmc/gmh.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "serve/json_mini.h"
#include "smc/online_update.h"
#include "smc/smc_sampler.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::disarm();
        obs::reset();
        failpoint::reset();
    }
    void TearDown() override {
        obs::disarm();
        obs::reset();
        failpoint::reset();
    }

    static std::string tempPath(const std::string& name) {
        return ::testing::TempDir() + name;
    }
};

TEST_F(ObsTest, UnarmedRegistryRecordsNothing) {
    ASSERT_FALSE(obs::armed());
    obs::add(obs::Counter::PoolLaunches, 100);
    obs::set(obs::Gauge::SmcLogZ, -12.5);
    obs::observe(obs::Histogram::PoolLaunchLatencyUs, 42);
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::PoolLaunches), 0u);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::SmcLogZ)]);
    EXPECT_EQ(snap.histCount(obs::Histogram::PoolLaunchLatencyUs), 0u);
}

TEST_F(ObsTest, ArmedCountersFoldAcrossThreadShards) {
    obs::arm();
    constexpr int kThreads = 6;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                obs::add(obs::Counter::LikCombineOps);
        });
    for (auto& t : threads) t.join();
    obs::add(obs::Counter::LikFlushes, 3);  // plus the main thread's shard
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::LikCombineOps), kThreads * kPerThread);
    EXPECT_EQ(snap.counter(obs::Counter::LikFlushes), 3u);
}

TEST_F(ObsTest, GaugesAreLastWriteWinsAndFlagged) {
    obs::arm();
    obs::set(obs::Gauge::McmcRhat, 1.5);
    obs::set(obs::Gauge::McmcRhat, 1.0071);
    obs::set(obs::Gauge::SmcLogZ, -321.25);
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_TRUE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::McmcRhat)]);
    EXPECT_EQ(snap.gauges[static_cast<std::size_t>(obs::Gauge::McmcRhat)], 1.0071);
    EXPECT_EQ(snap.gauges[static_cast<std::size_t>(obs::Gauge::SmcLogZ)], -321.25);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::McmcPooledEss)]);
}

TEST_F(ObsTest, HistogramBucketsAndQuantilesFollowPowerOfTwoBounds) {
    obs::arm();
    const auto h = obs::Histogram::ServeEstimateUs;
    // 0 and 1 land in bucket 0 (le 1); 2 in bucket 1; 3,4 in bucket 2; a
    // huge value clamps into the +Inf bucket.
    obs::observe(h, 0);
    obs::observe(h, 1);
    obs::observe(h, 2);
    obs::observe(h, 3);
    obs::observe(h, 4);
    obs::observe(h, std::uint64_t{1} << 40);
    const obs::MetricsSnapshot snap = obs::snapshot();
    const std::size_t hi = static_cast<std::size_t>(h);
    EXPECT_EQ(snap.hist[hi][0], 2u);
    EXPECT_EQ(snap.hist[hi][1], 1u);
    EXPECT_EQ(snap.hist[hi][2], 2u);
    EXPECT_EQ(snap.hist[hi][obs::kHistogramBuckets - 1], 1u);
    EXPECT_EQ(snap.histCount(h), 6u);
    EXPECT_EQ(snap.histSumUs[hi], 10u + (std::uint64_t{1} << 40));

    // Quantiles report the le bound of the covering bucket: the 3rd of 6
    // observations sits in bucket 1 (le 2), the last in +Inf (capped at
    // the sum rather than inventing a bound).
    EXPECT_EQ(snap.histQuantileUs(h, 0.50), 2u);
    EXPECT_EQ(snap.histQuantileUs(h, 0.75), 4u);
    EXPECT_EQ(snap.histQuantileUs(h, 1.00), snap.histSumUs[hi]);
    EXPECT_EQ(snap.histQuantileUs(obs::Histogram::ServeLogzUs, 0.5), 0u);  // empty
}

TEST_F(ObsTest, ResetZeroesEverything) {
    obs::arm();
    obs::add(obs::Counter::SmcGenerations, 7);
    obs::set(obs::Gauge::SmcEssFraction, 0.5);
    obs::observe(obs::Histogram::ServeLogzUs, 9);
    obs::reset();
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::SmcGenerations), 0u);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::SmcEssFraction)]);
    EXPECT_EQ(snap.histCount(obs::Histogram::ServeLogzUs), 0u);
    EXPECT_EQ(snap.droppedThreads, 0u);
}

TEST_F(ObsTest, JsonEmissionIsFlatAndParseable) {
    obs::arm();
    obs::add(obs::Counter::PoolLaunches, 11);
    obs::set(obs::Gauge::SmcLogZ, -42.5);
    obs::observe(obs::Histogram::PoolLaunchLatencyUs, 100);
    const std::string json = obs::toJson(obs::snapshot());
    // Single-level object: the protocol's own minimal parser accepts it.
    const auto obj = json_mini::parse(json);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launches"), 11.0);
    EXPECT_EQ(json_mini::getNumber(obj, "smc.logz"), -42.5);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.count"), 1.0);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.sum"), 100.0);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.p50"), 128.0);
    // Unset gauges and empty histograms stay out of the object entirely.
    EXPECT_FALSE(json_mini::has(obj, "mcmc.rhat"));
    EXPECT_FALSE(json_mini::has(obj, "serve.checkpoint_write_us.count"));
    // Every counter appears even at zero — dashboards need stable keys.
    EXPECT_EQ(json_mini::getNumber(obj, "serve.jobs_rejected"), 0.0);
}

TEST_F(ObsTest, PrometheusExpositionMatchesTheTextFormat) {
    obs::arm();
    obs::add(obs::Counter::LikMatricesComputed, 5);
    obs::set(obs::Gauge::McmcRhat, 1.01);
    obs::observe(obs::Histogram::ServeSnapshotUs, 3);
    obs::observe(obs::Histogram::ServeSnapshotUs, 3000000);  // +Inf bucket
    const std::string text = obs::toPrometheus(obs::snapshot());
    EXPECT_NE(text.find("# TYPE mpcgs_lik_matrices_computed counter\n"
                        "mpcgs_lik_matrices_computed 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE mpcgs_mcmc_rhat gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE mpcgs_serve_job_latency_us_snapshot histogram"),
              std::string::npos);
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_bucket{le=\"4\"} 1\n"),
              std::string::npos)
        << text;
    // Buckets are cumulative and the +Inf bucket equals _count.
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_count 2\n"), std::string::npos);
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_sum 3000003\n"), std::string::npos);
}

TEST_F(ObsTest, MetricsFileRoundTripsThroughDisk) {
    obs::arm();
    obs::add(obs::Counter::SmcResamples, 4);
    const std::string path = tempPath("obs_metrics.json");
    obs::writeMetricsFile(path);
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto obj = json_mini::parse(body);
    EXPECT_EQ(json_mini::getNumber(obj, "smc.resamples"), 4.0);
    std::remove(path.c_str());
}

TEST_F(ObsTest, EmitFaultsSurfaceAsTypedErrors) {
    // Injected errno: an operational I/O fault (exit taxonomy slot 6).
    failpoint::configure("obs.emit=once:errno=ENOSPC");
    try {
        obs::writeMetricsFile(tempPath("obs_fault.json"));
        FAIL() << "armed obs.emit did not surface";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos);
    }
    // Default action: the generic injected-fault error.
    failpoint::configure("obs.emit=once");
    EXPECT_THROW(obs::writeMetricsFile(tempPath("obs_fault.json")),
                 InjectedFaultError);
    failpoint::reset();
    // A real unwritable path is the same IoError, no fail point needed.
    EXPECT_THROW(obs::writeMetricsFile("/nonexistent_dir_mpcgs/m.json"), IoError);
}

TEST_F(ObsTest, TraceRecorderEmitsChromeTraceEvents) {
    obs::TraceRecorder rec(8);
    rec.record("alpha", "pool", 10, 5);
    rec.record("beta", "smc", 20, 2);
    EXPECT_EQ(rec.eventCount(), 2u);
    EXPECT_EQ(rec.droppedEvents(), 0u);
    const std::string json = rec.toJson();
    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
    EXPECT_NE(json.find("{\"name\":\"alpha\",\"cat\":\"pool\",\"ph\":\"X\","
                        "\"ts\":10,\"dur\":5,\"pid\":1,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

    const std::string path = tempPath("obs_trace.json");
    rec.writeFile(path);
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceRecorderDropsBeyondCapacityAndReportsIt) {
    obs::TraceRecorder rec(2);
    rec.record("a", "t", 0, 1);
    rec.record("b", "t", 1, 1);
    rec.record("c", "t", 2, 1);  // over capacity: dropped, not reallocated
    EXPECT_EQ(rec.eventCount(), 2u);
    EXPECT_EQ(rec.droppedEvents(), 1u);
    EXPECT_NE(rec.toJson().find("\"mpcgsDroppedEvents\":1"), std::string::npos);
}

TEST_F(ObsTest, TraceSpansRecordOnlyWhileArmed) {
    { const obs::TraceSpan unarmed("ghost", "test"); }  // no recorder: no-op
    obs::TraceRecorder rec(8);
    obs::armTrace(&rec);
    {
        const obs::TraceSpan outer("outer", "test");
        const obs::TraceSpan inner("inner", "test");
    }
    obs::armTrace(nullptr);
    { const obs::TraceSpan after("after", "test"); }  // disarmed again
    EXPECT_EQ(rec.eventCount(), 2u);
    const std::string json = rec.toJson();
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"ghost\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"after\""), std::string::npos);
}

// --- the central guarantee: metrics never perturb an estimate ----------

namespace {

DataLikelihood makeLik(Alignment& store) {
    Mt19937 rng(307);
    const Genealogy truth = simulateCoalescent(14, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    store = simulateSequences(truth, *gen, {200, 1.0}, rng);
    static const F81Model model(kUniformFreqs);
    return DataLikelihood(store, model);
}

double runFilterLogZ(const DataLikelihood& lik, ThreadPool* pool) {
    SmcOptions opts;
    opts.particles = 64;
    LikelihoodBackend backend(lik);
    SmcFilter filter(backend, 1.0, opts, 29, pool);
    while (!filter.done()) filter.step();
    return filter.logZ();
}

}  // namespace

TEST_F(ObsTest, ArmingMetricsKeepsSmcLogZBitwiseIdentical) {
    Alignment data;
    const DataLikelihood lik = makeLik(data);

    obs::disarm();
    const double unarmedLogZ = runFilterLogZ(lik, nullptr);

    obs::arm();
    const double armedLogZ = runFilterLogZ(lik, nullptr);
    const obs::MetricsSnapshot snap = obs::snapshot();
    // The armed run actually recorded (this test would be vacuous against
    // a registry that never turned on).
    EXPECT_GT(snap.counter(obs::Counter::SmcGenerations), 0u);
    EXPECT_GT(snap.counter(obs::Counter::LikMatricesComputed), 0u);

    // Bitwise, not approximate: instrumentation touches no RNG stream.
    EXPECT_EQ(std::memcmp(&unarmedLogZ, &armedLogZ, sizeof(double)), 0)
        << unarmedLogZ << " vs " << armedLogZ;
}

TEST_F(ObsTest, ArmedRunsStayThreadCountInvariant) {
    Alignment data;
    const DataLikelihood lik = makeLik(data);
    obs::arm();
    const double serialLogZ = runFilterLogZ(lik, nullptr);
    ThreadPool pool(4);
    const double pooledLogZ = runFilterLogZ(lik, &pool);
    EXPECT_EQ(std::memcmp(&serialLogZ, &pooledLogZ, sizeof(double)), 0)
        << serialLogZ << " vs " << pooledLogZ;
}


// --- lik.nodes_pruned: the engine's work, on the MCMC paths too -----------

namespace {

constexpr std::size_t kGmhTicks = 60;
constexpr std::size_t kGmhProposals = 16;

struct GmhTrace {
    std::vector<double> logPost;
    Genealogy last;
};

/// A short 12-tip GMH run through GmhGenealogyProblem (region frontier).
GmhTrace runGmh(ThreadPool* pool) {
    Mt19937 rng(911);
    const Genealogy truth = simulateCoalescent(12, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(truth, *gen, {300, 1.0}, rng);
    const F81Model model(kUniformFreqs);
    const DataLikelihood lik(data, model);
    const GmhGenealogyProblem problem(lik, 1.0);
    GmhOptions opts;
    opts.numProposals = kGmhProposals;
    opts.samplesPerIteration = 4;
    opts.seed = 31;
    GmhSampler<GmhGenealogyProblem> sampler(problem, opts, pool);
    GmhTrace t;
    t.last = sampler.run(simulateCoalescent(12, 1.0, rng), 0, kGmhTicks,
                         [&](const Genealogy&, double lp) { t.logPost.push_back(lp); });
    return t;
}

}  // namespace

TEST_F(ObsTest, NodesPrunedRepeatsExactlyForAFixedSeed) {
    obs::arm();
    (void)runGmh(nullptr);
    const std::uint64_t first = obs::snapshot().counter(obs::Counter::LikNodesPruned);
    obs::reset();
    ThreadPool pool(2);
    (void)runGmh(&pool);
    const std::uint64_t second = obs::snapshot().counter(obs::Counter::LikNodesPruned);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(first, second);

    // The stateless and cached paths count every internal node per category.
    obs::reset();
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(12, 1.0, rng);
    const Alignment data = simulateSequences(g, *makeF84(2.0, kUniformFreqs), {50, 1.0}, rng);
    const F81Model model(kUniformFreqs);
    const DataLikelihood lik(data, model, RateCategories::discreteGamma(0.5, 3));
    (void)lik.logLikelihood(g);
    EXPECT_EQ(obs::snapshot().counter(obs::Counter::LikNodesPruned), 11u * 3u);
    LikelihoodCache cache(lik);
    (void)cache.evaluate(g);
    EXPECT_EQ(obs::snapshot().counter(obs::Counter::LikNodesPruned), 2u * 11u * 3u);
}

TEST_F(ObsTest, GmhPrunesFewerThanEveryNodePerProposal) {
    obs::arm();
    (void)runGmh(nullptr);
    const double pruned =
        static_cast<double>(obs::snapshot().counter(obs::Counter::LikNodesPruned));
    // Everything is counted: the start's full evaluation, one frontier
    // capture per set and every proposal's path. A 12-tip tree has 11
    // internal nodes, which full recomputation would prune per proposal.
    const double perProposal = pruned / static_cast<double>(kGmhTicks * kGmhProposals);
    EXPECT_LT(perProposal, 11.0);
    EXPECT_GT(perProposal, 2.0);  // every path holds at least T and P
}

TEST_F(ObsTest, ArmingMetricsKeepsGmhOutputBitwiseIdentical) {
    const GmhTrace unarmed = runGmh(nullptr);
    obs::arm();
    const GmhTrace armed = runGmh(nullptr);
    const auto snap = obs::snapshot();
    EXPECT_GT(snap.counter(obs::Counter::LikNodesPruned), 0u);
    // Every proposal places its merge times by CDF inversion; each draw
    // evaluates the CDF at least once (its total mass) and, replaying the
    // bisection from a certified bracket, about 7 times on average.
    const std::uint64_t draws = snap.counter(obs::Counter::CoalescentMergeDraws);
    const std::uint64_t evals = snap.counter(obs::Counter::CoalescentCdfEvals);
    EXPECT_GE(draws, static_cast<std::uint64_t>(kGmhTicks * kGmhProposals / 2));
    EXPECT_GT(evals, draws);
    EXPECT_LE(evals, 15 * draws);
    ASSERT_EQ(unarmed.logPost.size(), armed.logPost.size());
    EXPECT_EQ(std::memcmp(unarmed.logPost.data(), armed.logPost.data(),
                          unarmed.logPost.size() * sizeof(double)),
              0);
    EXPECT_TRUE(unarmed.last == armed.last);
}

// --- smc.online_scored_trees / smc.online_tripod_evals: online scoring work

namespace {

constexpr std::size_t kOnlineParticles = 24;
constexpr std::size_t kOnlineAdds = 3;

struct OnlineRun {
    std::uint64_t scoredTrees = 0;
    std::uint64_t tripodEvals = 0;
    /// Sum over updates of G * (2n - 1) * (iterations + 2) + N: every
    /// scored tree (G, read from smc.online_scored_trees per update) runs
    /// the golden-section search on its 2n - 1 candidates, and every
    /// particle scores its drawn attachment once.
    std::uint64_t expectedEvals = 0;
    OnlineState state;
};

/// Three refreshing add-sequence updates, with the counters read around
/// each one.
OnlineRun runOnline(ThreadPool* pool) {
    Mt19937 rng(717);
    const Genealogy truth = simulateCoalescent(8, 1.0, rng);
    const Alignment full =
        simulateSequences(truth, *makeF84(2.0, kUniformFreqs), {80, 1.0}, rng);
    const std::vector<Sequence>& seqs = full.sequences();
    SmcOptions smc;
    smc.particles = kOnlineParticles;
    OnlineRun run;
    run.state = initOnlineState(
        Alignment(std::vector<Sequence>(seqs.begin(), seqs.end() - kOnlineAdds)), 1.0, smc,
        "F81", 3, pool);
    OnlineOptions oo;
    oo.essThreshold = 1.0;
    for (std::size_t a = 0; a < kOnlineAdds; ++a) {
        const std::uint64_t tips = run.state.alignment.sequenceCount();
        const obs::MetricsSnapshot before = obs::snapshot();
        OnlineSmcUpdater(run.state, oo, pool).addSequence(seqs[seqs.size() - kOnlineAdds + a]);
        const obs::MetricsSnapshot after = obs::snapshot();
        const std::uint64_t groups = after.counter(obs::Counter::SmcOnlineScoredTrees) -
                                     before.counter(obs::Counter::SmcOnlineScoredTrees);
        run.scoredTrees += groups;
        run.tripodEvals += after.counter(obs::Counter::SmcOnlineTripodEvals) -
                           before.counter(obs::Counter::SmcOnlineTripodEvals);
        run.expectedEvals +=
            groups * (2 * tips - 1) * (oo.heightSearchIterations + 2) + kOnlineParticles;
    }
    return run;
}

}  // namespace

TEST_F(ObsTest, OnlineScoredTreesRepeatsAndCountsSharedWork) {
    obs::arm();
    const std::uint64_t serial = runOnline(nullptr).scoredTrees;
    ThreadPool pool(2);
    const std::uint64_t pooled = runOnline(&pool).scoredTrees;
    EXPECT_EQ(serial, pooled);
    EXPECT_EQ(obs::snapshot().counter(obs::Counter::SmcOnlineUpdates), 2 * kOnlineAdds);
    // At least one tree per update and at most one per particle; resampling
    // leaves copies, so a refreshing run stays below one per particle.
    EXPECT_GE(serial, kOnlineAdds);
    EXPECT_LT(serial, kOnlineParticles * kOnlineAdds) << serial;
}

TEST_F(ObsTest, OnlineTripodEvalsCountEveryScoreAndRepeat) {
    obs::arm();
    const OnlineRun serial = runOnline(nullptr);
    ThreadPool pool(2);
    const OnlineRun pooled = runOnline(&pool);
    EXPECT_GT(serial.tripodEvals, 0u);
    EXPECT_EQ(serial.tripodEvals, pooled.tripodEvals);
    EXPECT_EQ(serial.tripodEvals, serial.expectedEvals);
    EXPECT_EQ(pooled.tripodEvals, pooled.expectedEvals);
}

TEST_F(ObsTest, ArmingMetricsKeepsOnlineUpdatesBitwiseIdentical) {
    ThreadPool pool(2);
    const OnlineRun unarmed = runOnline(&pool);
    EXPECT_EQ(unarmed.tripodEvals, 0u);  // counted only while armed
    obs::arm();
    const OnlineRun armed = runOnline(&pool);
    EXPECT_GT(armed.tripodEvals, 0u);
    EXPECT_EQ(unarmed.state.logZ, armed.state.logZ);
    ASSERT_EQ(unarmed.state.particles.size(), armed.state.particles.size());
    for (std::size_t p = 0; p < armed.state.particles.size(); ++p) {
        EXPECT_EQ(unarmed.state.particles[p].logW, armed.state.particles[p].logW);
        EXPECT_EQ(unarmed.state.particles[p].logL, armed.state.particles[p].logL);
        EXPECT_EQ(unarmed.state.particles[p].tree, armed.state.particles[p].tree);
    }
}

}  // namespace
}  // namespace mpcgs
