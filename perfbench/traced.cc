#include "traced.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "coalescent/prior.h"
#include "lik/lik_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/mt19937.h"
#include "serve/serve.h"
#include "smc/smc_sampler.h"

namespace perfbench {

using namespace mpcgs;

namespace {

double cpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

template <class F>
double timeUs(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Repetition counts of the traced run: fixed, so that self times and
/// registry counts compare across runs.
struct Sizes {
    int setups = 9;
    int untraced = 2;
    int traced = 2;
    int launches = 2000;
    int gmhTicks = 1200;  ///< enough for a p99 with 12 samples beyond it
    int mhTicks = 4000;
    int serialTicks = 200;
    int likReps = 10;
    int flushes = 100;
    int passes = 32;  ///< at the workload's threads; half as many at the other count
    int stepPasses = 4;
    int onlineInits = 3;
    int serveSessions = 4;
};

Sizes sizesFor(const Workload& wl) {
    Sizes s;
    if (!wl.tiny) return s;
    s.setups = 3;
    s.untraced = 1;
    s.launches = 200;
    s.gmhTicks = s.mhTicks = s.serialTicks = 60;
    s.likReps = 2;
    s.flushes = 10;
    s.passes = s.stepPasses = 2;
    s.onlineInits = s.serveSessions = 1;
    return s;
}

/// Keeps every k-th sampled genealogy, up to a cap: the trees the lik and
/// coalescent probes evaluate.
class Collect final : public SampleSink {
  public:
    explicit Collect(std::size_t every) : every_(every) {}
    void consume(const Genealogy& g, const SampleTag&) override {
        if (seen_++ % every_ == 0 && trees.size() < 64) trees.push_back(g);
    }
    std::vector<Genealogy> trees;

  private:
    std::size_t every_;
    std::size_t seen_ = 0;
};

/// What the metrics registry counted over one estimate.
struct Counts {
    obs::MetricsSnapshot snap;

    std::uint64_t at(obs::Counter c) const { return snap.counter(c); }
    double ratio(obs::Counter num, obs::Counter den) const {
        return at(den) == 0 ? 0.0 : static_cast<double>(at(num)) / static_cast<double>(at(den));
    }
    /// Counts that depend only on the inputs, not on thread scheduling
    /// (steals, parks and wakes do depend on it).
    bool sameWork(const Counts& o) const {
        for (obs::Counter c :
             {obs::Counter::PoolLaunches, obs::Counter::LikFlushes, obs::Counter::LikCombineOps,
              obs::Counter::LikMatricesRequested, obs::Counter::LikMatricesComputed,
              obs::Counter::McmcSteps, obs::Counter::McmcAccepted,
              obs::Counter::SmcGenerations, obs::Counter::SmcResamples,
              obs::Counter::SmcOnlineUpdates, obs::Counter::SmcOnlineRefreshes})
            if (at(c) != o.at(c)) return false;
        return true;
    }
};

std::string describeP(const char* what, std::size_t n, double percentile = 50.0) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "p%.1f of %zu %s", percentile, n, what);
    return buf;
}

struct OnlineInputs {
    Alignment initial;
    std::vector<Sequence> adds;
};

OnlineInputs onlineInputs(const Workload& wl, const Alignment& aln) {
    const auto& seqs = aln.sequences();
    const auto split = seqs.begin() + wl.shape.onlineInit;
    return {Alignment(std::vector<Sequence>(seqs.begin(), split)),
            std::vector<Sequence>(split, split + static_cast<long>(wl.shape.onlineAdds))};
}

}  // namespace

void runTraced(const Workload& wl, const std::string& dataPath, const std::string& dir,
               Report& rep, Ops& ops) {
    const Sizes z = sizesFor(wl);
    obs::TraceRecorder recorder;
    SpanLog spans(&recorder);

    // --- set-up stages (round 0) -----------------------------------------
    std::vector<double> parseMs, buildMs, treeMs, spawnMs;
    Ready ready;
    for (int i = 0; i < z.setups; ++i) {
        SetupTimes t;
        ready = setUp(wl, dataPath, t, &spans);
        parseMs.push_back(t.parse * 1e3);
        buildMs.push_back(t.likBuild * 1e3);
        treeMs.push_back(t.initTree * 1e3);
        spawnMs.push_back(t.spawn * 1e3);
    }
    rep.add("seq.parse_ms", median(parseMs), "ms", parseMs.size(), "readAlignmentFile");
    rep.add("lik.build_ms", median(buildMs), "ms", buildMs.size(), "DataLikelihood constructor");
    rep.add("phylo.init_tree_ms", median(treeMs), "ms", treeMs.size(), "initialGenealogy");
    rep.add("par.spawn_ms", median(spawnMs), "ms", spawnMs.size(), "ThreadPool constructor");

    ThreadPool* pool = ready.estimatePool(wl);
    std::unique_ptr<ThreadPool> ownedTwo;
    ThreadPool* two = ready.pool.get();
    if (two->size() != 2) {
        ownedTwo = std::make_unique<ThreadPool>(2);
        two = ownedTwo.get();
    }

    // --- the workload's estimate: untraced, then traced ------------------
    std::vector<double> untracedS, tracedS, cpuPerWall;
    Output ref;
    for (int i = 0; i < z.untraced; ++i) {
        const Estimate e = runEstimate(wl, ready, pool, dir, ops, nullptr);
        untracedS.push_back(e.seconds);
        ref = e.output();
    }
    std::vector<Counts> counts;
    std::vector<double> estepS, mstepS;
    CurveReplay mle;
    for (int round = 1; round <= z.traced; ++round) {
        spans.setRound(round);
        Span all(&spans, "estimate_round", "bench");
        obs::reset();
        obs::arm();
        obs::armTrace(&recorder);
        const double cpu0 = cpuSeconds();
        Estimate e = runEstimate(wl, ready, pool, dir, ops, &spans);
        const double cpu = cpuSeconds() - cpu0;
        obs::armTrace(nullptr);
        obs::disarm();
        counts.push_back(Counts{obs::snapshot()});
        tracedS.push_back(e.seconds);
        cpuPerWall.push_back(cpu / e.seconds);
        ops.check(sameOutput(e.output(), ref),
                  wl.name + ": traced estimate differs from untraced");
        if (e.em) {
            estepS.push_back(e.em->samplingSeconds);
            mstepS.push_back(e.em->totalSeconds - e.em->samplingSeconds);
            if (round == 1) {
                mle = replayFinalMstep(*e.em, pool, &spans);
                ops.check(mle.theta == e.theta, wl.name + ": M-step replay differs");
            }
        }
    }
    if (counts.size() > 1)
        ops.check(counts[0].sameWork(counts[1]),
                  wl.name + ": registry work counts differ between two traced estimates");
    rep.add("trace.overhead_frac", median(tracedS) / median(untracedS) - 1.0, "fraction",
            tracedS.size() + untracedS.size(), "traced estimate_s / untraced estimate_s - 1");

    // The repo's thread-invariance contract: 1 and 2 threads agree bitwise.
    {
        spans.setRound(z.traced + 1);
        ThreadPool* other = wl.threads == 2 ? nullptr : two;
        const Estimate e = runEstimate(wl, ready, other, dir, ops, &spans);
        ops.check(sameOutput(e.output(), ref),
                  wl.name + ": 1-thread and 2-thread outputs differ");
    }

    // --- registry counts of one estimate ---------------------------------
    const Counts& c = counts.front();
    using C = obs::Counter;
    const std::string per = "per estimate (registry)";
    rep.add("par.launches", double(c.at(C::PoolLaunches)), "count", 1, per);
    rep.add("par.steal_frac", c.ratio(C::PoolChunksStolen, C::PoolLaunches), "ratio",
            c.at(C::PoolLaunches), "chunks stolen per launch");
    rep.add("par.parks", double(c.at(C::PoolParks)), "count", 1, per);
    rep.add("par.wakes", double(c.at(C::PoolWakes)), "count", 1, per);
    rep.add("par.cpu_per_wall", median(cpuPerWall), "ratio", cpuPerWall.size(),
            "process CPU s / wall s during the estimate");
    rep.add("lik.flushes", double(c.at(C::LikFlushes)), "count", 1, per);
    rep.add("lik.combine_ops", double(c.at(C::LikCombineOps)), "count", 1, per);
    rep.add("lik.matrices_requested", double(c.at(C::LikMatricesRequested)), "count", 1, per);
    rep.add("lik.matrices_computed", double(c.at(C::LikMatricesComputed)), "count", 1, per);
    rep.add("lik.matrix_reuse_frac",
            c.at(C::LikMatricesRequested) == 0
                ? 0.0
                : 1.0 - c.ratio(C::LikMatricesComputed, C::LikMatricesRequested),
            "fraction", c.at(C::LikMatricesRequested), "1 - computed / requested");
    rep.add("mcmc.accept_frac", c.ratio(C::McmcAccepted, C::McmcSteps), "fraction",
            c.at(C::McmcSteps), "accepted / steps");
    rep.add("smc.generations", double(c.at(C::SmcGenerations)), "count", 1, per);
    rep.add("smc.resamples", double(c.at(C::SmcResamples)), "count", 1, per);
    rep.add("smc.resample_frac", c.ratio(C::SmcResamples, C::SmcGenerations), "fraction",
            c.at(C::SmcGenerations), "resamples / generations");
    const auto minEss = static_cast<std::size_t>(obs::Gauge::SmcMinEssFraction);
    rep.add("smc.min_ess_frac", c.snap.gaugeSet[minEss] ? c.snap.gauges[minEss] : 0.0,
            "fraction", c.snap.gaugeSet[minEss] ? 1 : 0, "smallest ESS/N (registry gauge)");
    rep.add("smc.online_refresh_frac", c.ratio(C::SmcOnlineRefreshes, C::SmcOnlineUpdates),
            "fraction", c.at(C::SmcOnlineUpdates), "refreshes / online updates");

    // --- per-layer probes on the workload's data and pool ----------------
    spans.setRound(z.traced + 2);

    {  // par: launch latency of a trivial 32-item loop on the workload's pool
        Span g(&spans, "probe_launch", "bench");
        std::vector<double> us;
        std::vector<int> slots(32, 0);
        for (int i = 0; i < z.launches; ++i) {
            Span s(&spans, "parallelFor", "par");
            us.push_back(timeUs([&] {
                ready.pool->parallelFor(slots.size(),
                                        [&](std::size_t k) { slots[k] += 1; });
            }));
        }
        rep.add("par.launch_us_p50", median(us), "us", us.size(),
                describeP("launches of 32 items", us.size()));
        rep.add("par.launch_us_p99", quantile(us, 0.99), "us", us.size(),
                describeP("launches of 32 items", us.size(), 99.0));
    }

    std::vector<Genealogy> trees;
    {  // mcmc: Sampler::tick with the workload's spec and pool, then 1 vs 2 threads
        Span g(&spans, "probe_mcmc", "bench");
        const SamplerSpec spec = wl.samplerSpec();
        const bool gmh = spec.strategy == Strategy::Gmh;
        auto ticks = [&](ThreadPool* p, int n, Collect* sink) {
            std::unique_ptr<Sampler> sampler =
                makeSampler(spec, *ready.lik, kTrueTheta, ready.init, p);
            for (int i = 0; i < 20; ++i) sampler->tick(nullptr);
            Collect discard(1u << 30);
            std::vector<double> us;
            for (int i = 0; i < n; ++i) {
                Span s(&spans, "Sampler::tick", "mcmc");
                us.push_back(timeUs([&] { sampler->tick(sink ? sink : &discard); }));
            }
            return us;
        };
        const int n = gmh ? z.gmhTicks : z.mhTicks;
        Collect sink(static_cast<std::size_t>(std::max(1, n / 64)));
        const std::vector<double> us = ticks(pool, n, &sink);
        trees = sink.trees;
        rep.add("mcmc.tick_us_p50", median(us), "us", us.size(),
                describeP(gmh ? "GMH ticks" : "MH ticks", us.size()));
        const Tail t = tailAtLeast(us);
        const double p = std::min(99.0, t.percentile);
        rep.add("mcmc.tick_us_p99", quantile(us, p / 100.0), "us", us.size(),
                describeP(gmh ? "GMH ticks" : "MH ticks", us.size(), p));
        const double t1 = median(ticks(nullptr, z.serialTicks, nullptr));
        const double t2 = median(ticks(two, z.serialTicks, nullptr));
        rep.add("mcmc.tick_serial_frac", 2.0 * t2 / t1 - 1.0, "fraction",
                static_cast<std::size_t>(2 * z.serialTicks), "2*t2/t1 - 1 from tick p50");
    }

    {  // lik: the MCMC likelihood engine, no pool, on the sampled genealogies
        Span g(&spans, "probe_lik_engine", "bench");
        std::vector<double> us;
        double sink = 0.0;
        for (int r = 0; r < z.likReps; ++r)
            for (const Genealogy& tree : trees) {
                Span s(&spans, "DataLikelihood::logLikelihood", "lik");
                us.push_back(timeUs([&] { sink += ready.lik->logLikelihood(tree); }));
            }
        ops.check(std::isfinite(sink), wl.name + ": non-finite log-likelihood in the lik probe");
        // Per internal node, pattern and rate category the pruning step reads
        // two child vectors (2 x 4 doubles), writes one (4 doubles) and does
        // two 4x4 matrix-vector products plus 4 products: 60 flops, 96 bytes.
        const double siteNodes = double(ready.aln.sequenceCount() - 1) *
                                 double(ready.lik->patternCount()) *
                                 double(ready.lik->rateCategories().count());
        const double p50 = median(us);
        rep.add("lik.eval_us_p50", p50, "us", us.size(),
                describeP("logLikelihood calls", us.size()));
        rep.add("lik.site_nodes_per_s", siteNodes / (p50 * 1e-6), "1/s", us.size(),
                "(n-1) x patterns x categories / eval p50");
        rep.add("lik.bytes_per_eval_computed", 96.0 * siteNodes, "B", 1,
                "computed from array sizes");
        rep.add("lik.ops_per_byte_computed", 60.0 / 96.0, "flop/B", 1,
                "computed from array sizes");
    }

    {  // coalescent: the prior on the same genealogies
        Span g(&spans, "probe_prior", "bench");
        std::vector<double> us;
        double sink = 0.0;
        for (int r = 0; r < z.likReps; ++r)
            for (const Genealogy& tree : trees) {
                Span s(&spans, "logCoalescentPrior", "coalescent");
                us.push_back(timeUs([&] { sink += logCoalescentPrior(tree, kTrueTheta); }));
            }
        ops.check(std::isfinite(sink), wl.name + ": non-finite prior in the coalescent probe");
        rep.add("coalescent.prior_us_p50", median(us), "us", us.size(),
                describeP("logCoalescentPrior calls", us.size()));
    }

    {  // lik: one generation-sized flush of a batched backend
        Span g(&spans, "probe_lik_backend", "bench");
        std::unique_ptr<LikelihoodBackend> backend =
            makeLikelihoodBackend(LikBackendKind::Batched, *ready.lik);
        const int tips = static_cast<int>(ready.aln.sequenceCount());
        const std::size_t particles = wl.shape.smcParticles;
        backend->resizeSlots(static_cast<std::size_t>(tips) + particles);
        for (int t = 0; t < tips; ++t) backend->tipInit(static_cast<LikelihoodBackend::Slot>(t), t);
        backend->flush(pool);
        Mt19937 rng(kProgramSeed);
        std::vector<double> out(particles), us;
        for (int f = 0; f < z.flushes; ++f) {
            for (std::size_t p = 0; p < particles; ++p) {
                const auto a = static_cast<LikelihoodBackend::Slot>(rng.uniform01() * tips);
                auto b = static_cast<LikelihoodBackend::Slot>(rng.uniform01() * (tips - 1));
                if (b >= a) ++b;
                const auto parent = static_cast<LikelihoodBackend::Slot>(tips + p);
                backend->combine(parent, a, rng.uniform(0.01, 0.5), b, rng.uniform(0.01, 0.5));
                backend->rootLogLik(parent, &out[p]);
            }
            Span s(&spans, "LikelihoodBackend::flush", "lik");
            us.push_back(timeUs([&] { backend->flush(pool); }));
            ops.check(std::all_of(out.begin(), out.end(), [](double v) { return std::isfinite(v); }),
                      wl.name + ": non-finite root factor in the backend flush probe");
        }
        rep.add("lik.flush_us_p50", median(us), "us", us.size(),
                describeP("flushes of one combine per particle", us.size()));
    }

    {  // smc: whole passes at 1 and 2 threads, then single generations
        Span g(&spans, "probe_smc", "bench");
        const SmcOptions so = smcOptions(wl.shape.smcParticles);
        auto passes = [&](ThreadPool* p, int count) {
            std::vector<double> ms;
            for (int i = 0; i < count; ++i) {
                Span s(&spans, "runSmcPass", "smc");
                double logZ = 0.0;
                ms.push_back(1e-3 * timeUs([&] {
                    logZ = runSmcPass(*ready.lik, kTrueTheta, so,
                                      kProgramSeed + static_cast<std::uint64_t>(i), p)
                               .logZ;
                }));
                ops.check(std::isfinite(logZ), wl.name + ": non-finite SMC pass logZ");
            }
            return ms;
        };
        const bool ownIsTwo = wl.threads == 2;
        const std::vector<double> one = passes(nullptr, ownIsTwo ? z.passes / 2 : z.passes);
        const std::vector<double> twoMs = passes(two, ownIsTwo ? z.passes : z.passes / 2);
        const std::vector<double>& own = ownIsTwo ? twoMs : one;
        const Tail t = tailAtLeast(own);
        rep.add("smc.pass_ms_p50", median(own), "ms", own.size(),
                describeP("runSmcPass calls", own.size()));
        rep.add("smc.pass_ms_tail", t.value, "ms", own.size(),
                describeP("runSmcPass calls", own.size(), t.percentile));
        rep.add("smc.pass_serial_frac", 2.0 * median(twoMs) / median(one) - 1.0, "fraction",
                one.size() + twoMs.size(), "2*t2/t1 - 1 from pass p50");

        std::vector<double> stepUs;
        for (int i = 0; i < z.stepPasses; ++i) {
            std::unique_ptr<LikelihoodBackend> backend =
                makeLikelihoodBackend(so.backend, *ready.lik);
            SmcFilter filter(*backend, kTrueTheta, so, kProgramSeed + static_cast<std::uint64_t>(i),
                             pool);
            while (!filter.done()) {
                Span s(&spans, "SmcFilter::step", "smc");
                stepUs.push_back(timeUs([&] { filter.step(); }));
            }
            ops.check(std::isfinite(filter.finish().logZ),
                      wl.name + ": non-finite stepped SMC pass logZ");
        }
        rep.add("smc.step_us_p50", median(stepUs), "us", stepUs.size(),
                describeP("SmcFilter::step calls", stepUs.size()));
    }

    const OnlineInputs online = onlineInputs(wl, ready.aln);
    OnlineState warm;
    {  // smc/online_update: cold start of the warm state
        Span g(&spans, "probe_online_init", "bench");
        std::vector<double> initMs;
        for (int i = 0; i < z.onlineInits; ++i) {
            Span s(&spans, "initOnlineState", "smc");
            initMs.push_back(1e-3 * timeUs([&] {
                warm = initOnlineState(online.initial, kTrueTheta,
                                       smcOptions(wl.shape.onlineParticles), "F81",
                                       kProgramSeed, pool);
            }));
        }
        rep.add("smc.online_init_ms", median(initMs), "ms", initMs.size(), "initOnlineState");
    }

    {  // serve and smc/online_update: each add is timed three ways back to
       // back on the same state: the bare update on a copy, the add reply,
       // and a snapshot. The difference is what the serve layer adds.
        Span g(&spans, "probe_serve", "bench");
        std::vector<double> updateMs, addMs, snapMs, overheadMs, queryUs;
        for (int r = 0; r < z.serveSessions; ++r) {
            ServeSession session(warm, dir + "/probe_state.mpck", OnlineOptions{}, pool);
            for (const Sequence& seq : online.adds) {
                OnlineState copy = session.state();
                OnlineSmcUpdater updater(copy, OnlineOptions{}, pool);
                {
                    Span s(&spans, "OnlineSmcUpdater::addSequence", "smc");
                    updateMs.push_back(1e-3 * timeUs([&] { updater.addSequence(seq); }));
                }
                std::string reply;
                {
                    Span s(&spans, "handleLine(add_sequence)", "serve");
                    addMs.push_back(1e-3 * timeUs([&] {
                        reply = session.handleLine(addSequenceJob(seq));
                    }));
                }
                ops.check(replyOk(reply), wl.name + ": " + reply);
                ops.check(copy.logZ == session.state().logZ,
                          wl.name + ": add reply and bare update disagree");
                {
                    Span s(&spans, "ServeSession::snapshot", "serve");
                    snapMs.push_back(1e-3 * timeUs([&] { session.snapshot(); }));
                }
                overheadMs.push_back(addMs.back() - updateMs.back() - snapMs.back());
                for (const char* job : {"{\"job\":\"estimate\"}", "{\"job\":\"logz\"}"}) {
                    Span s(&spans, "handleLine(read)", "serve");
                    queryUs.push_back(timeUs([&] { reply = session.handleLine(job); }));
                    ops.check(replyOk(reply), wl.name + ": " + reply);
                }
            }
        }
        rep.add("smc.online_update_ms_p50", median(updateMs), "ms", updateMs.size(),
                describeP("addSequence calls", updateMs.size()));
        rep.add("serve.snapshot_ms_p50", median(snapMs), "ms", snapMs.size(),
                describeP("ServeSession::snapshot calls", snapMs.size()));
        rep.add("serve.query_us_p50", median(queryUs), "us", queryUs.size(),
                describeP("estimate and logz replies", queryUs.size()));
        rep.add("serve.overhead_ms_p50", median(overheadMs), "ms", overheadMs.size(),
                "per add: reply - addSequence - snapshot, same state");
    }

    {  // core: E- and M-step split, and the maximizer's curve evaluations
        Span g(&spans, "probe_core", "bench");
        std::string source = "the workload's estimate";
        if (!wl.isEm()) {
            // No EM on this workload: a short GMH EM run on its data and pool.
            Workload probe = Workload::byName("em_gmh", wl.tiny);
            probe.shape.emIterations = 1;
            // A multiple of M = 8, so the GMH run emits exactly this many.
            probe.shape.emSamples = std::max<std::size_t>(wl.shape.emSamples / 32 * 8, 96);
            const Estimate e = runEstimate(probe, ready, ready.pool.get(), dir, ops, &spans);
            estepS.push_back(e.em->samplingSeconds);
            mstepS.push_back(e.em->totalSeconds - e.em->samplingSeconds);
            source = "a 1-iteration GMH EM probe";
            mle = replayFinalMstep(*e.em, ready.pool.get(), &spans);
            ops.check(mle.theta == e.theta, wl.name + ": M-step replay differs");
        }
        rep.add("core.estep_s", median(estepS), "s", estepS.size(),
                "samplingSeconds of " + source);
        rep.add("core.mstep_s", median(mstepS), "s", mstepS.size(),
                "totalSeconds - samplingSeconds of " + source);
        rep.add("core.mle_evals", double(mle.calls), "count", 1,
                "logL calls in the final M-step replay");
        rep.add("core.mle_eval_ms_p50", median(mle.evalMs), "ms", mle.evalMs.size(),
                "curve evaluations in the final M-step replay");
    }

    for (const char* module :
         {"seq", "lik", "phylo", "par", "mcmc", "coalescent", "core", "smc", "serve"}) {
        const auto self = spans.selfMsByModule();
        const auto it = self.find(module);
        rep.add(std::string("self_ms.") + module, it == self.end() ? 0.0 : it->second, "ms",
                spans.size(), "span time minus child spans, whole traced run");
    }

    const std::string tracePath = dir + "/trace_" + wl.name + ".json";
    recorder.writeFile(tracePath);
    rep.provenance("trace_file", "\"" + tracePath + "\"");
    char events[64];
    std::snprintf(events, sizeof events, "%zu", recorder.eventCount());
    rep.provenance("trace_events", events);
}

}  // namespace perfbench
