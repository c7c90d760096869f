#include "workloads.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench/workload.h"
#include "core/mle.h"
#include "rng/splitmix.h"
#include "seq/phylip.h"
#include "serve/json_mini.h"
#include "serve/serve.h"

namespace perfbench {

using namespace mpcgs;

Shape Shape::tiny() {
    Shape s;
    s.sequences = 7;
    s.length = 120;
    s.emIterations = 2;
    s.emSamples = 200;
    s.smcParticles = 32;
    s.onlineInit = 4;
    s.onlineAdds = 3;
    s.onlineParticles = 16;
    s.datasets = 2;
    return s;
}

Workload Workload::byName(const std::string& name, bool tiny) {
    Workload wl;
    wl.name = name;
    wl.tiny = tiny;
    wl.shape = tiny ? Shape::tiny() : Shape::full();
    // At most 2 threads: the 4-vCPU hosts this runs on deliver about two
    // cores of real throughput, and wider pools only add run-to-run noise.
    if (name == "em_gmh") {
        wl.kind = Kind::EmGmh;
        wl.threads = 2;
    } else if (name == "em_mh") {
        wl.kind = Kind::EmMh;
        wl.threads = 1;
    } else if (name == "serve_online") {
        wl.kind = Kind::ServeOnline;
        wl.threads = 2;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (em_gmh | em_mh | serve_online)");
    }
    // Estimates shorter than em_gmh's leave room to mix more datasets.
    if (!tiny && wl.kind != Kind::EmGmh) wl.shape.datasets = 32;
    return wl;
}

SamplerSpec Workload::samplerSpec() const {
    SamplerSpec spec;
    spec.strategy = kind == Kind::EmMh ? Strategy::SerialMh : Strategy::Gmh;
    spec.seed = kProgramSeed;
    // The CLI's GMH geometry (--proposals 32 --set-samples 8), pinned
    // because MpcgsOptions defaults M to N.
    spec.gmhProposals = 32;
    spec.gmhSamplesPerSet = 8;
    return spec;
}

std::vector<std::string> writeInputs(const Workload& wl, unsigned seed, int count,
                                     const std::string& dir) {
    std::vector<std::string> paths;
    for (int i = 0; i < count; ++i) {
        const auto dataSeed = static_cast<unsigned>(splitMix64At(seed, static_cast<unsigned>(i)));
        paths.push_back(dir + "/data" + std::to_string(i) + ".phy");
        writePhylipFile(paths.back(), bench::makeDataset(wl.shape.sequences, wl.shape.length,
                                                         kTrueTheta, dataSeed));
    }
    return paths;
}

ThreadPool* Ready::estimatePool(const Workload& wl) const {
    return wl.kind == Kind::EmMh ? nullptr : pool.get();
}

SmcOptions smcOptions(std::size_t particles) {
    SmcOptions o;
    o.particles = particles;
    o.scheme = ResamplingScheme::Systematic;
    o.backend = LikBackendKind::Batched;
    return o;
}

Ready setUp(const Workload& wl, const std::string& dataPath, SetupTimes& t, SpanLog* spans) {
    Span all(spans, "setup", "bench");
    Ready r;
    const Clock::time_point t0 = Clock::now();
    {
        Span s(spans, "readAlignmentFile", "seq");
        r.aln = readAlignmentFile(dataPath);
    }
    const Clock::time_point t1 = Clock::now();
    {
        Span s(spans, "DataLikelihood", "lik");
        r.model = makeInferenceModel("F81", r.aln);
        r.lik = std::make_unique<DataLikelihood>(r.aln, *r.model, true);
    }
    const Clock::time_point t2 = Clock::now();
    {
        Span s(spans, "initialGenealogy", "phylo");
        r.init = initialGenealogy(r.aln, kTrueTheta);
    }
    const Clock::time_point t3 = Clock::now();
    {
        Span s(spans, "ThreadPool", "par");
        r.pool = std::make_unique<ThreadPool>(wl.threads);
    }
    const Clock::time_point t4 = Clock::now();
    if (wl.kind == Kind::ServeOnline) {
        Span s(spans, "initOnlineState", "smc");
        const auto& seqs = r.aln.sequences();
        const auto split = seqs.begin() + wl.shape.onlineInit;
        r.online = initOnlineState(Alignment(std::vector<Sequence>(seqs.begin(), split)),
                                   kTrueTheta, smcOptions(wl.shape.onlineParticles), "F81",
                                   kProgramSeed, r.pool.get());
        r.adds.assign(split, split + static_cast<long>(wl.shape.onlineAdds));
    }
    const Clock::time_point t5 = Clock::now();
    auto sec = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    t = SetupTimes{sec(t0, t1), sec(t1, t2), sec(t2, t3), sec(t3, t4), sec(t4, t5), sec(t0, t5)};
    return r;
}

namespace {

bool thetaOk(double theta) {
    return std::isfinite(theta) && theta > kTrueTheta / kThetaTolerance &&
           theta < kTrueTheta * kThetaTolerance;
}

std::string fmt(const char* what, double v) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s (%.17g)", what, v);
    return buf;
}

Estimate runEm(const Workload& wl, const Ready& ready, ThreadPool* pool, Ops& ops,
               SpanLog* spans) {
    MpcgsOptions o;
    o.theta0 = kTrueTheta;
    o.emIterations = wl.shape.emIterations;
    o.samplesPerIteration = wl.shape.emSamples;
    o.seed = kProgramSeed;
    const SamplerSpec spec = wl.samplerSpec();
    o.strategy = spec.strategy;
    o.gmhProposals = spec.gmhProposals;
    o.gmhSamplesPerSet = spec.gmhSamplesPerSet;

    Estimate e;
    const Clock::time_point t0 = Clock::now();
    {
        Span s(spans, "estimateTheta", "core");
        e.em = estimateTheta(ready.aln, o, pool);
    }
    e.seconds = secondsSince(t0);
    e.theta = e.em->theta;
    std::size_t samples = 0;
    for (const EmIterationRecord& rec : e.em->history) {
        samples += rec.samples;
        e.updateMs.push_back(rec.seconds * 1e3);
    }
    e.work = static_cast<double>(samples);
    ops.check(thetaOk(e.theta) && e.em->history.size() == wl.shape.emIterations &&
                  samples == wl.shape.emIterations * wl.shape.emSamples,
              wl.name + ": " + fmt("estimate outside tolerance or short", e.theta));
    return e;
}

Estimate runServe(const Workload& wl, const Ready& ready, ThreadPool* pool,
                  const std::string& dir, Ops& ops, SpanLog* spans) {
    // A fresh session over the initial warm state: the latency
    // distribution stays stationary because every session adds the same
    // K sequences to the same starting posterior.
    ServeSession session(*ready.online, dir + "/state.mpck", OnlineOptions{}, pool);
    Estimate e;
    std::string lastEstimate;
    Span all(spans, "serve_session", "serve");
    const Clock::time_point t0 = Clock::now();
    for (const Sequence& seq : ready.adds) {
        const Clock::time_point a0 = Clock::now();
        std::string reply;
        {
            Span s(spans, "add_sequence", "serve");
            reply = session.handleLine(addSequenceJob(seq));
        }
        e.updateMs.push_back(1e3 * secondsSince(a0));
        ops.check(replyOk(reply), wl.name + ": add_sequence reply " + reply);
        {
            Span s(spans, "logz", "serve");
            reply = session.handleLine("{\"job\":\"logz\"}");
        }
        ops.check(replyOk(reply), wl.name + ": logz reply " + reply);
        {
            Span s(spans, "estimate", "serve");
            lastEstimate = session.handleLine("{\"job\":\"estimate\"}");
        }
        ops.check(replyOk(lastEstimate), wl.name + ": estimate reply " + lastEstimate);
    }
    e.seconds = secondsSince(t0);
    e.work = static_cast<double>(session.state().updates - ready.online->updates);
    e.logZ = session.state().logZ;
    e.theta = onlineThetaEstimate(session.state());
    double replied = std::nan("");
    try {
        replied = json_mini::getNumber(json_mini::parse(lastEstimate), "theta");
    } catch (const std::exception&) {
    }
    ops.check(thetaOk(e.theta) && std::isfinite(e.logZ) &&
                  std::fabs(replied - e.theta) <= 1e-6 * e.theta &&
                  e.work == static_cast<double>(ready.adds.size()),
              wl.name + ": " + fmt("session estimate outside tolerance", e.theta));
    return e;
}

/// Counting, timing view of a theta curve.
class CountingCurve final : public ThetaLikelihood {
  public:
    CountingCurve(const ThetaLikelihood& inner, SpanLog* spans, const char* name,
                  const char* module)
        : inner_(inner), spans_(spans), name_(name), module_(module) {}

    double logL(double theta, ThreadPool* pool = nullptr) const override {
        ++calls;
        const Clock::time_point t0 = Clock::now();
        double v = 0.0;
        {
            Span s(spans_, name_, module_);
            v = inner_.logL(theta, pool);
        }
        evalMs.push_back(1e3 * secondsSince(t0));
        return v;
    }

    mutable std::size_t calls = 0;
    mutable std::vector<double> evalMs;

  private:
    const ThetaLikelihood& inner_;
    SpanLog* spans_;
    const char* name_;
    const char* module_;
};

}  // namespace

Estimate runEstimate(const Workload& wl, const Ready& ready, ThreadPool* pool,
                     const std::string& dir, Ops& ops, SpanLog* spans) {
    switch (wl.kind) {
        case Kind::EmGmh:
        case Kind::EmMh:
            return runEm(wl, ready, pool, ops, spans);
        case Kind::ServeOnline:
            return runServe(wl, ready, pool, dir, ops, spans);
    }
    throw std::logic_error("unreachable workload kind");
}

std::string addSequenceJob(const Sequence& s) {
    return "{\"job\":\"add_sequence\",\"name\":\"" + s.name() + "\",\"sequence\":\"" +
           s.toString() + "\"}";
}

bool replyOk(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

bool sameOutput(const Output& a, const Output& b) {
    auto bits = [](double v) {
        std::uint64_t k = 0;
        std::memcpy(&k, &v, sizeof k);
        return k;
    };
    return bits(a.theta) == bits(b.theta) && bits(a.logZ) == bits(b.logZ) && a.work == b.work;
}

CurveReplay replayFinalMstep(const MpcgsResult& result, ThreadPool* pool, SpanLog* spans) {
    const PooledRelativeLikelihood rl = finalPooledLikelihood(result);
    const CountingCurve curve(rl, spans, "relative_likelihood_eval", "core");
    CurveReplay r;
    {
        Span s(spans, "maximizeTheta", "core");
        r.theta = maximizeTheta(curve, result.history.back().thetaBefore, pool).theta;
    }
    r.calls = curve.calls;
    r.evalMs = curve.evalMs;
    return r;
}

double measureEffectiveCores() {
    const unsigned n = hardwareThreads();
    auto spin = [](std::uint64_t* out) {
        std::uint64_t x = *out;
        for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
        *out = x;
    };
    std::vector<std::uint64_t> sinks(n, 1);
    std::vector<double> ratios;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        spin(&sinks[0]);
        const double one = secondsSince(t0);
        t0 = Clock::now();
        {
            std::vector<std::thread> threads;
            for (unsigned i = 0; i < n; ++i) threads.emplace_back(spin, &sinks[i]);
            for (std::thread& t : threads) t.join();
        }
        ratios.push_back(static_cast<double>(n) * one / secondsSince(t0));
    }
    std::uint64_t fold = 0;
    for (std::uint64_t s : sinks) fold ^= s;
    return fold == 42 ? 0.0 : median(ratios);
}

}  // namespace perfbench
