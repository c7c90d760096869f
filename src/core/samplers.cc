#include "core/samplers.h"

#include <utility>

#include "core/genealogy_problem.h"
#include "mcmc/checkpoint.h"
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

namespace {

/// Every adapter writes its strategy id first, so loading a snapshot into
/// the wrong sampler fails loudly instead of misinterpreting the stream.
void writeTag(CheckpointWriter& w, Strategy s) { w.u32(static_cast<std::uint32_t>(s)); }
void checkTag(CheckpointReader& r, Strategy s) {
    if (r.u32() != static_cast<std::uint32_t>(s))
        throw CheckpointError("snapshot was written by a different strategy");
}

/// Serial MH baseline: one transition and one sample per tick. MhChain
/// keeps a reference to its problem; the adapter owns both.
class SerialMhAdapter final : public Sampler {
  public:
    SerialMhAdapter(const DataLikelihood& lik, double theta, Genealogy init, Mt19937 rng)
        : problem_(lik, theta), chain_(problem_, std::move(init), std::move(rng)) {}

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
        w.f64(chain_.currentLogPosterior());
        w.u64(chain_.steps());
        w.u64(chain_.acceptedCount());
        w.u64(emitted_);
        writeRng(w, chain_.rng());
    }

    void load(CheckpointReader& r) override {
        checkTag(r, Strategy::SerialMh);
        Genealogy g = readGenealogy(r);
        const double logPost = r.f64();
        const std::size_t steps = r.u64();
        const std::size_t accepted = r.u64();
        emitted_ = r.u64();
        chain_.restore(std::move(g), logPost, steps, accepted);
        readRng(r, chain_.rng());
    }

  private:
    MhGenealogyProblem problem_;
    MhChain<MhGenealogyProblem> chain_;
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

}  // namespace

std::unique_ptr<Sampler> makeSampler(const SamplerSpec& spec, const DataLikelihood& lik,
                                     double theta, Genealogy init, ThreadPool* pool) {
    switch (spec.strategy) {
        case Strategy::Gmh:
            return std::make_unique<GmhAdapter<GmhGenealogyProblem>>(spec, pool, std::move(init),
                                                                     lik, theta);
        case Strategy::SerialMh:
            return std::make_unique<SerialMhAdapter>(
                lik, theta, std::move(init), Mt19937::fromSplitMix(splitMix64At(spec.seed, 1)));
        case Strategy::MultiChain:
            return std::make_unique<LockstepSampler<MhGenealogyProblem>>(spec.chains, spec.seed,
                                                                         pool, init, lik, theta);
        case Strategy::HeatedMh:
            return std::make_unique<HeatedAdapter>(lik, theta, std::move(init), spec, pool);
    }
    throw ConfigError("makeSampler: unknown strategy");
}

}  // namespace mpcgs
