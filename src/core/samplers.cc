#include "core/samplers.h"

#include <utility>

#include "core/cached_mh.h"
#include "core/genealogy_problem.h"
#include "mcmc/checkpoint.h"
#include "mcmc/gmh.h"
#include "mcmc/heated.h"
#include "mcmc/mh.h"
#include "rng/splitmix.h"

namespace mpcgs {

/// The multi-chain strategy's lockstep hooks: plain genealogies under the
/// Strategy::MultiChain tag.
template <>
struct LockstepIo<MhGenealogyProblem> {
    static constexpr std::uint32_t kTag = static_cast<std::uint32_t>(Strategy::MultiChain);
    static void write(CheckpointWriter& w, const Genealogy& g) { writeGenealogy(w, g); }
    static Genealogy read(CheckpointReader& r, const MhGenealogyProblem&) {
        return readGenealogy(r);
    }
    static const Genealogy& tree(const Genealogy& g) { return g; }
};

std::size_t SummarySink::total() const {
    std::size_t n = 0;
    for (const auto& c : perChain_) n += c.size();
    return n;
}

std::vector<IntervalSummary> SummarySink::chainMajor() const {
    std::vector<IntervalSummary> out;
    out.reserve(total());
    for (const auto& c : perChain_) out.insert(out.end(), c.begin(), c.end());
    return out;
}

void SummarySink::save(CheckpointWriter& w) const {
    w.u64(perChain_.size());
    for (const auto& c : perChain_) {
        w.u64(c.size());
        for (const IntervalSummary& s : c) {
            w.f64(s.weightedSum);
            w.u64(static_cast<std::uint64_t>(s.events));
        }
    }
}

void SummarySink::load(CheckpointReader& r) {
    const std::uint64_t chains = r.u64();
    if (chains > r.remaining() / sizeof(std::uint64_t))
        throw CheckpointError("corrupt snapshot: implausible chain count");
    perChain_.assign(chains, {});
    for (auto& c : perChain_) {
        const std::uint64_t n = r.u64();
        // Each summary occupies one f64 + one u64 in the stream.
        if (n > r.remaining() / (2 * sizeof(std::uint64_t)))
            throw CheckpointError("corrupt snapshot: implausible summary count");
        c.resize(n);
        for (IntervalSummary& s : c) {
            s.weightedSum = r.f64();
            s.events = static_cast<int>(r.u64());
        }
    }
}

namespace {

/// Every adapter writes its strategy id first, so loading a snapshot into
/// the wrong sampler fails loudly instead of misinterpreting the stream.
void writeTag(CheckpointWriter& w, Strategy s) { w.u32(static_cast<std::uint32_t>(s)); }
void checkTag(CheckpointReader& r, Strategy s) {
    if (r.u32() != static_cast<std::uint32_t>(s))
        throw CheckpointError("snapshot was written by a different strategy");
}

/// Serial MH baseline (recompute or cached evaluation): one transition and
/// one sample per tick.
template <class Chain>
class SerialMhAdapter final : public Sampler {
  public:
    SerialMhAdapter(Chain chain) : chain_(std::move(chain)) {}

    std::uint32_t chainCount() const override { return 1; }
    std::size_t samplesPerTick() const override { return 1; }

    void tick(SampleSink* sink) override {
        chain_.step();
        if (sink)
            sink->consume(chain_.current(),
                          SampleTag{0, emitted_++, chain_.currentLogPosterior()});
    }

    const Genealogy& continuation() const override { return chain_.current(); }

    SamplerStats stats() const override {
        return SamplerStats{chain_.steps(), chain_.acceptedCount(), 0, 0};
    }

    void save(CheckpointWriter& w) const override {
        writeTag(w, Strategy::SerialMh);
        writeGenealogy(w, chain_.current());
        w.f64(savedLogValue());
        w.u64(chain_.steps());
        w.u64(chain_.acceptedCount());
        w.u64(emitted_);
        writeRng(w, chain_.rng());
    }

    void load(CheckpointReader& r) override {
        checkTag(r, Strategy::SerialMh);
        Genealogy g = readGenealogy(r);
        const double logValue = r.f64();
        const std::size_t steps = r.u64();
        const std::size_t accepted = r.u64();
        emitted_ = r.u64();
        chain_.restore(std::move(g), logValue, steps, accepted);
        readRng(r, chain_.rng());
    }

  private:
    /// MhChain carries the log-posterior; CachedMhSampler carries the data
    /// log-likelihood (its prior term is recomputed per step). Snapshot
    /// whichever quantity restore() expects.
    double savedLogValue() const {
        if constexpr (requires { chain_.currentDataLogLik(); })
            return chain_.currentDataLogLik();
        else
            return chain_.currentLogPosterior();
    }

    Chain chain_;
    std::uint64_t emitted_ = 0;
};

/// GMH: one Algorithm-1 iteration per tick, emitting M index draws.
class GmhAdapter final : public Sampler {
  public:
    GmhAdapter(const DataLikelihood& lik, double theta, Genealogy init,
               const SamplerSpec& spec, ThreadPool* pool)
        : problem_(lik, theta),
          sampler_(problem_, gmhOptions(spec), pool),
          samplesPerTick_(spec.gmhSamplesPerSet) {
        sampler_.hostRng() = Mt19937::fromSplitMix(splitMix64At(spec.seed, 1));
        sampler_.start(std::move(init));
    }

    std::uint32_t chainCount() const override { return 1; }
    std::size_t samplesPerTick() const override { return samplesPerTick_; }

    void tick(SampleSink* sink) override {
        if (!sink) {
            sampler_.tick(static_cast<Emit*>(nullptr));
            return;
        }
        Emit emit{sink, &emitted_};
        sampler_.tick(&emit);
    }

    const Genealogy& continuation() const override { return sampler_.current(); }

    SamplerStats stats() const override {
        const GmhStats& s = sampler_.stats();
        return SamplerStats{s.samplesDrawn, s.samplesDrawn - s.generatorResampled, 0, 0};
    }

    void save(CheckpointWriter& w) const override {
        writeTag(w, Strategy::Gmh);
        writeGenealogy(w, sampler_.current());
        w.f64(sampler_.currentLogPosterior());
        w.u64(sampler_.iteration());
        const GmhStats& s = sampler_.stats();
        w.u64(s.iterations);
        w.u64(s.samplesDrawn);
        w.u64(s.generatorResampled);
        w.f64(s.meanGeneratorWeight);
        w.u64(emitted_);
        writeRng(w, sampler_.hostRng());
    }

    void load(CheckpointReader& r) override {
        checkTag(r, Strategy::Gmh);
        Genealogy g = readGenealogy(r);
        const double logPost = r.f64();
        const std::uint64_t iteration = r.u64();
        GmhStats s;
        s.iterations = r.u64();
        s.samplesDrawn = r.u64();
        s.generatorResampled = r.u64();
        s.meanGeneratorWeight = r.f64();
        emitted_ = r.u64();
        sampler_.restore(std::move(g), logPost, iteration, s);
        readRng(r, sampler_.hostRng());
    }

  private:
    struct Emit {
        SampleSink* sink;
        std::uint64_t* emitted;
        void operator()(const Genealogy& g, double logPost) {
            sink->consume(g, SampleTag{0, (*emitted)++, logPost});
        }
    };

    static GmhOptions gmhOptions(const SamplerSpec& spec) {
        GmhOptions o;
        o.numProposals = spec.gmhProposals;
        o.samplesPerIteration = spec.gmhSamplesPerSet;
        o.seed = spec.seed;
        return o;
    }

    GmhGenealogyProblem problem_;
    GmhSampler<GmhGenealogyProblem> sampler_;
    std::size_t samplesPerTick_;
    std::uint64_t emitted_ = 0;
};

/// MC^3: one sweep per tick (pool-parallel within-sweep stepping inside
/// HeatedChains), sampling the cold chain.
class HeatedAdapter final : public Sampler {
  public:
    HeatedAdapter(const DataLikelihood& lik, double theta, const Genealogy& init,
                  const SamplerSpec& spec, ThreadPool* pool)
        : problem_(lik, theta), chains_(problem_, init, heatedOptions(spec), pool) {}

    std::uint32_t chainCount() const override { return 1; }
    std::size_t samplesPerTick() const override { return 1; }

    void tick(SampleSink* sink) override {
        chains_.sweep();
        if (sink)
            sink->consume(chains_.cold(),
                          SampleTag{0, emitted_++, chains_.coldLogPosterior()});
    }

    const Genealogy& continuation() const override { return chains_.cold(); }

    SamplerStats stats() const override {
        const HeatedStats s = chains_.stats();
        return SamplerStats{s.steps, s.accepted, s.swapsProposed, s.swapsAccepted};
    }

    void save(CheckpointWriter& w) const override {
        writeTag(w, Strategy::HeatedMh);
        chains_.save(w, writeGenealogy);
        w.u64(emitted_);
    }

    void load(CheckpointReader& r) override {
        checkTag(r, Strategy::HeatedMh);
        chains_.load(r, readGenealogy);
        emitted_ = r.u64();
    }

  private:
    static HeatedOptions heatedOptions(const SamplerSpec& spec) {
        HeatedOptions o;
        o.temperatures = spec.temperatures;
        o.swapInterval = spec.swapInterval;
        o.seed = spec.seed;
        return o;
    }

    MhGenealogyProblem problem_;
    HeatedChains<MhGenealogyProblem> chains_;
    std::uint64_t emitted_ = 0;
};

/// MhChain stores a reference to its problem; this wrapper owns both so
/// the adapter is self-contained.
class OwnedMhChain {
  public:
    OwnedMhChain(const DataLikelihood& lik, double theta, Genealogy init, Mt19937 rng)
        : problem_(std::make_unique<MhGenealogyProblem>(lik, theta)),
          chain_(std::make_unique<MhChain<MhGenealogyProblem>>(*problem_, std::move(init),
                                                               std::move(rng))) {}

    void step() { chain_->step(); }
    const Genealogy& current() const { return chain_->current(); }
    double currentLogPosterior() const { return chain_->currentLogPosterior(); }
    std::size_t steps() const { return chain_->steps(); }
    std::size_t acceptedCount() const { return chain_->acceptedCount(); }
    Mt19937& rng() { return chain_->rng(); }
    const Mt19937& rng() const { return chain_->rng(); }
    void restore(Genealogy g, double logPost, std::size_t steps, std::size_t accepted) {
        chain_->restore(std::move(g), logPost, steps, accepted);
    }

  private:
    std::unique_ptr<MhGenealogyProblem> problem_;
    std::unique_ptr<MhChain<MhGenealogyProblem>> chain_;
};

}  // namespace

std::unique_ptr<Sampler> makeSampler(const SamplerSpec& spec, const DataLikelihood& lik,
                                     double theta, Genealogy init, ThreadPool* pool) {
    switch (spec.strategy) {
        case Strategy::Gmh:
            return std::make_unique<GmhAdapter>(lik, theta, std::move(init), spec, pool);
        case Strategy::SerialMh:
            if (spec.cachedBaseline)
                return std::make_unique<SerialMhAdapter<CachedMhSampler>>(CachedMhSampler(
                    lik, theta, std::move(init),
                    Mt19937::fromSplitMix(splitMix64At(spec.seed, 1)), pool));
            return std::make_unique<SerialMhAdapter<OwnedMhChain>>(OwnedMhChain(
                lik, theta, std::move(init),
                Mt19937::fromSplitMix(splitMix64At(spec.seed, 1))));
        case Strategy::MultiChain:
            return std::make_unique<LockstepSampler<MhGenealogyProblem>>(spec.chains, spec.seed,
                                                                         pool, init, lik, theta);
        case Strategy::HeatedMh:
            return std::make_unique<HeatedAdapter>(lik, theta, std::move(init), spec, pool);
    }
    throw ConfigError("makeSampler: unknown strategy");
}

}  // namespace mpcgs
