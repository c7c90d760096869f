// Concrete Sampler implementations binding the unified runtime interface
// (mcmc/sampler.h) to the genealogy problems: every strategy the driver
// offers is constructed here, behind one factory, with per-chain
// SplitMix64-derived RNG streams and full checkpoint support.
//
//   Strategy::Gmh        one GmhSampler iteration per tick (M samples)
//   Strategy::SerialMh   one MhChain step per tick
//   Strategy::MultiChain P lockstep MhChain steps per tick (P samples),
//                        one chain per forEachIndex work unit
//   Strategy::HeatedMh   one MC^3 sweep per tick (cold-chain sample),
//                        within-sweep stepping parallel across the pool
//
// LockstepSampler is the one lockstep ensemble: the multi-chain strategy
// runs it over MhGenealogyProblem, the structured estimator over
// StructuredMhProblem (core/structured_sampler.h). GmhAdapter is the one
// GMH sampler over the one GMH problem, GmhProblem (core/genealogy_problem.h):
// the GMH strategy runs it with the constant-size prior, the growth
// estimator with the growth prior (core/growth_estimator.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/posterior.h"
#include "lik/felsenstein.h"
#include "mcmc/checkpoint.h"
#include "mcmc/gmh.h"
#include "mcmc/heated.h"
#include "mcmc/mh.h"
#include "mcmc/sampler.h"
#include "par/thread_pool.h"
#include "rng/splitmix.h"

namespace mpcgs {

enum class Strategy {
    Gmh,        ///< multiple-proposal sampler (the paper's method)
    SerialMh,   ///< single serial MH chain (LAMARC baseline)
    MultiChain, ///< P independent MH chains, aggregated (§3 baseline)
    HeatedMh,   ///< Metropolis-coupled chains (LAMARC's heating feature)
};

/// Everything the factory needs to build one sampler (a strategy-relevant
/// subset of MpcgsOptions; the driver fills it per E-step).
struct SamplerSpec {
    Strategy strategy = Strategy::Gmh;
    std::uint64_t seed = 1;
    std::size_t gmhProposals = kGmhDefaultProposals;          ///< Gmh: N proposals per set
    std::size_t gmhSamplesPerSet = kGmhDefaultSamplesPerSet;  ///< Gmh: M draws per set
    std::size_t chains = 4;                    ///< MultiChain: P
    std::vector<double> temperatures =  ///< HeatedMh ladder
        std::vector<double>(kDefaultTemperatures.begin(), kDefaultTemperatures.end());
    std::size_t swapInterval = 10;             ///< HeatedMh: sweeps per swap
};

/// Streaming chain-major collector of per-sample summaries. Each sample is
/// reduced to a Summary on arrival (§5.1.3 stores nothing more than
/// interval statistics), so no genealogy state is ever buffered. Per-chain
/// vectors make concurrent consumption lock-free under the sink contract;
/// chainMajor() concatenates them in chain order, which is deterministic
/// regardless of how chain execution interleaved. Each sink derived from
/// it supplies consume and one summary's snapshot words.
template <class Summary>
class ChainMajorSink : public SampleSink {
  public:
    void beginRun(std::uint32_t chains) override {
        if (chains > perChain_.size()) perChain_.resize(chains);
    }

    std::size_t total() const {
        std::size_t n = 0;
        for (const auto& c : perChain_) n += c.size();
        return n;
    }

    std::vector<Summary> chainMajor() const {
        std::vector<Summary> out;
        out.reserve(total());
        for (const auto& c : perChain_) out.insert(out.end(), c.begin(), c.end());
        return out;
    }

    /// u64 chain count, then per chain u64 sample count and each sample's
    /// words.
    void save(CheckpointWriter& w) const override {
        w.u64(perChain_.size());
        for (const auto& c : perChain_) {
            w.u64(c.size());
            for (const Summary& s : c) writeSummary(w, s);
        }
    }

    void load(CheckpointReader& r) override {
        const std::uint64_t chains = r.u64();
        if (chains > r.remaining() / sizeof(std::uint64_t))
            throw CheckpointError("corrupt snapshot: implausible chain count");
        perChain_.assign(chains, {});
        for (auto& c : perChain_) {
            const std::uint64_t n = r.u64();
            if (n > r.remaining() / summaryBytes())
                throw CheckpointError("corrupt snapshot: implausible summary count");
            c.resize(n);
            for (Summary& s : c) s = readSummary(r);
        }
    }

  protected:
    /// One summary's snapshot words, and a lower bound on their size in
    /// bytes (so a corrupt count fails before it allocates).
    virtual void writeSummary(CheckpointWriter& w, const Summary& s) const = 0;
    virtual Summary readSummary(CheckpointReader& r) const = 0;
    virtual std::size_t summaryBytes() const = 0;

    std::vector<std::vector<Summary>> perChain_;
};

/// The driver's sample sink: each genealogy reduced to its IntervalSummary
/// (f64 weightedSum, u64 events in a snapshot).
class SummarySink final : public ChainMajorSink<IntervalSummary> {
  public:
    void consume(const Genealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(IntervalSummary::fromGenealogy(g));
    }

  private:
    void writeSummary(CheckpointWriter& w, const IntervalSummary& s) const override {
        w.f64(s.weightedSum);
        w.u64(static_cast<std::uint64_t>(s.events));
    }
    IntervalSummary readSummary(CheckpointReader& r) const override {
        const double weightedSum = r.f64();
        return {weightedSum, static_cast<int>(r.u64())};
    }
    std::size_t summaryBytes() const override { return 2 * sizeof(std::uint64_t); }
};

/// Per-problem hooks of LockstepSampler, specialized for each problem it
/// runs over:
///   static constexpr std::uint32_t kTag;            // snapshot tag word
///   static void write(CheckpointWriter&, const State&);
///   static State read(CheckpointReader&, const Problem&);
///   static const Genealogy& tree(const State&);      // continuation()
template <class Problem>
struct LockstepIo;

/// P independent MhChains over `Problem` advanced in lockstep rounds across
/// the pool: one step and one tagged sample per chain per tick (the §3
/// multi-chain baseline). Chain c draws from splitMix64At(seed, c + 1) and
/// a step touches only its own chain, so results are bitwise invariant to
/// the worker count.
template <class Problem>
class LockstepSampler final : public Sampler {
  public:
    using State = typename Problem::State;
    using Io = LockstepIo<Problem>;

    /// `chains` chains started at `init`, over a problem built from
    /// `problemArgs`.
    template <class... ProblemArgs>
    LockstepSampler(std::size_t chains, std::uint64_t seed, ThreadPool* pool,
                    const State& init, ProblemArgs&&... problemArgs)
        : problem_(std::forward<ProblemArgs>(problemArgs)...), pool_(pool) {
        chains_.reserve(chains);
        for (std::size_t c = 0; c < chains; ++c)
            chains_.emplace_back(problem_, init,
                                 Mt19937::fromSplitMix(splitMix64At(seed, c + 1)));
    }

    std::uint32_t chainCount() const override {
        return static_cast<std::uint32_t>(chains_.size());
    }
    std::size_t samplesPerTick() const override { return chains_.size(); }

    void tick(SampleSink* sink) override {
        forEachIndex(
            pool_, chains_.size(),
            [&](std::size_t c) {
                chains_[c].step();
                if (sink)
                    sink->consume(chains_[c].current(),
                                  SampleTag{static_cast<std::uint32_t>(c), sampleRounds_,
                                            chains_[c].currentLogPosterior()});
            },
            /*grain=*/1);
        if (sink) ++sampleRounds_;
    }

    /// Chain 0's state: the next E-step's warm start.
    const State& current() const { return chains_.front().current(); }
    const Genealogy& continuation() const override { return Io::tree(current()); }

    SamplerStats stats() const override {
        SamplerStats s;
        for (const auto& c : chains_) {
            s.steps += c.steps();
            s.accepted += c.acceptedCount();
        }
        return s;
    }

    void save(CheckpointWriter& w) const override {
        w.u32(Io::kTag);
        w.u64(chains_.size());
        for (const auto& c : chains_) c.save(w, Io::write);
        w.u64(sampleRounds_);
    }

    void load(CheckpointReader& r) override {
        if (r.u32() != Io::kTag)
            throw CheckpointError("snapshot was written by a different strategy");
        if (r.u64() != chains_.size())
            throw CheckpointError("snapshot chain count does not match configuration");
        for (auto& c : chains_)
            c.load(r, [this](CheckpointReader& in) { return Io::read(in, problem_); });
        sampleRounds_ = r.u64();
    }

  private:
    Problem problem_;
    ThreadPool* pool_;
    std::vector<MhChain<Problem>> chains_;
    std::uint64_t sampleRounds_ = 0;
};

/// GMH over `Problem`: one Algorithm-1 iteration per tick, emitting
/// spec.gmhSamplesPerSet index draws. The host stream is
/// splitMix64At(spec.seed, 1); proposal streams are Philox keyed by
/// spec.seed and the iteration, so results are bitwise invariant to the
/// pool width.
template <class Problem>
class GmhAdapter final : public Sampler {
  public:
    /// Warm-started from `init`, over a problem built from `problemArgs`.
    template <class... ProblemArgs>
    GmhAdapter(const SamplerSpec& spec, ThreadPool* pool, Genealogy init,
               ProblemArgs&&... problemArgs)
        : problem_(std::forward<ProblemArgs>(problemArgs)...),
          sampler_(problem_, GmhOptions{spec.gmhProposals, spec.gmhSamplesPerSet, spec.seed},
                   pool),
          samplesPerTick_(spec.gmhSamplesPerSet) {
        sampler_.hostRng() = Mt19937::fromSplitMix(splitMix64At(spec.seed, 1));
        sampler_.start(std::move(init));
    }

    std::uint32_t chainCount() const override { return 1; }
    std::size_t samplesPerTick() const override { return samplesPerTick_; }

    void tick(SampleSink* sink) override {
        Emit emit{sink, &emitted_};
        sampler_.tick(sink ? &emit : nullptr);
    }

    const Genealogy& continuation() const override { return sampler_.current(); }

    SamplerStats stats() const override {
        const GmhStats& s = sampler_.stats();
        return SamplerStats{s.samplesDrawn, s.samplesDrawn - s.generatorResampled, 0, 0};
    }

    void save(CheckpointWriter& w) const override {
        w.u32(static_cast<std::uint32_t>(Strategy::Gmh));
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
        if (r.u32() != static_cast<std::uint32_t>(Strategy::Gmh))
            throw CheckpointError("snapshot was written by a different strategy");
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

    Problem problem_;
    GmhSampler<Problem> sampler_;
    std::size_t samplesPerTick_;
    std::uint64_t emitted_ = 0;
};

/// Build the sampler for `spec` over P(D|G) * P(G|theta), warm-started
/// from `init`. `pool` parallelizes whatever the strategy can use it for
/// (GMH proposal fan-out, multi-chain rounds, MC^3 sweeps); serial MH
/// runs on the calling thread. Results are bitwise identical for any pool
/// width.
std::unique_ptr<Sampler> makeSampler(const SamplerSpec& spec, const DataLikelihood& lik,
                                     double theta, Genealogy init,
                                     ThreadPool* pool = nullptr);

}  // namespace mpcgs
