// Concrete Sampler implementations binding the unified runtime interface
// (mcmc/sampler.h) to the genealogy problems: every strategy the driver
// offers is constructed here, behind one factory, with per-chain
// SplitMix64-derived RNG streams and full checkpoint support.
//
//   Strategy::Gmh        one GmhSampler iteration per tick (M samples)
//   Strategy::SerialMh   one MhChain / CachedMhSampler step per tick
//   Strategy::MultiChain P lockstep MhChain steps per tick (P samples),
//                        one chain per forEachIndex work unit
//   Strategy::HeatedMh   one MC^3 sweep per tick (cold-chain sample),
//                        within-sweep stepping parallel across the pool
//
// LockstepSampler is the one lockstep ensemble: the multi-chain strategy
// runs it over MhGenealogyProblem, the structured estimator over
// StructuredMhProblem (core/structured_sampler.h).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/posterior.h"
#include "lik/felsenstein.h"
#include "mcmc/checkpoint.h"
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
    bool cachedBaseline = false;               ///< SerialMh: dirty-path caching
    std::size_t gmhProposals = 32;             ///< Gmh: N proposals per set
    std::size_t gmhSamplesPerSet = 32;         ///< Gmh: M draws per set
    std::size_t chains = 4;                    ///< MultiChain: P
    std::vector<double> temperatures =  ///< HeatedMh ladder
        std::vector<double>(kDefaultTemperatures.begin(), kDefaultTemperatures.end());
    std::size_t swapInterval = 10;             ///< HeatedMh: sweeps per swap
};

/// Streaming chain-major summary collector — the driver's sample sink.
/// Each sample is reduced to its IntervalSummary on arrival (§5.1.3 stores
/// nothing more than interval statistics), so no genealogy state is ever
/// buffered. Per-chain vectors make concurrent consumption lock-free under
/// the sink contract; chainMajor() concatenates them in chain order, which
/// is deterministic regardless of how chain execution interleaved.
class SummarySink final : public SampleSink {
  public:
    void beginRun(std::uint32_t chains) override {
        if (chains > perChain_.size()) perChain_.resize(chains);
    }
    void consume(const Genealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(IntervalSummary::fromGenealogy(g));
    }

    std::size_t total() const;
    std::vector<IntervalSummary> chainMajor() const;

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    std::vector<std::vector<IntervalSummary>> perChain_;
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

/// Build the sampler for `spec` over P(D|G) * P(G|theta), warm-started
/// from `init`. `pool` parallelizes whatever the strategy can use it for
/// (GMH proposal fan-out, multi-chain rounds, MC^3 sweeps, cached-MH
/// pattern blocks); results are bitwise identical for any pool width.
std::unique_ptr<Sampler> makeSampler(const SamplerSpec& spec, const DataLikelihood& lik,
                                     double theta, Genealogy init,
                                     ThreadPool* pool = nullptr);

}  // namespace mpcgs
