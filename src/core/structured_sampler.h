// Structured-coalescent sampling behind the unified runtime interface:
// the lockstep multi-chain sampler (core/samplers.h) over deme-labelled
// genealogies — one step + one tagged structured sample per chain per
// tick, chains stepped through forEachIndex — plus the structured
// sufficient-statistic sink. Each chain owns a SplitMix64-derived Mt19937
// stream and steps touch only per-chain state, so results are bitwise
// invariant to the worker count — the same determinism contract as every
// other strategy.
#pragma once

#include <cstdint>
#include <vector>

#include "coalescent/structured.h"
#include "core/samplers.h"
#include "core/structured_problem.h"
#include "mcmc/checkpoint.h"
#include "mcmc/sampler.h"

namespace mpcgs {

/// Streaming chain-major collector of structured sufficient statistics —
/// the structured run's sample sink (the §5.1.3 discipline generalized:
/// each labelled genealogy is reduced to its StructuredSummary on
/// arrival). Per-chain slots keep concurrent consumption lock-free under
/// the sink contract.
class StructuredSummarySink final : public SampleSink {
  public:
    explicit StructuredSummarySink(int demeCount = 2) : demeCount_(demeCount) {}

    void beginRun(std::uint32_t chains) override {
        if (chains > perChain_.size()) perChain_.resize(chains);
    }
    /// Structured sinks need labelled samples; feeding plain genealogies is
    /// a wiring bug and fails loudly.
    void consume(const Genealogy& g, const SampleTag& tag) override;
    void consume(const StructuredGenealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(StructuredSummary::fromGenealogy(g, demeCount_));
    }

    std::size_t total() const;
    std::vector<StructuredSummary> chainMajor() const;

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    int demeCount_;
    std::vector<std::vector<StructuredSummary>> perChain_;
};

/// Snapshot tag of the structured strategy ("STRC"): loading a structured
/// payload into any other sampler — or vice versa — fails loudly.
inline constexpr std::uint32_t kStructuredTag = 0x43525453u;

/// The structured strategy's lockstep hooks: deme-labelled genealogies
/// under kStructuredTag, projected to their tree for continuation().
template <>
struct LockstepIo<StructuredMhProblem> {
    static constexpr std::uint32_t kTag = kStructuredTag;
    static void write(CheckpointWriter& w, const StructuredGenealogy& g) {
        writeStructuredGenealogy(w, g);
    }
    static StructuredGenealogy read(CheckpointReader& r, const StructuredMhProblem& p) {
        return readStructuredGenealogy(r, p.model().demeCount());
    }
    static const Genealogy& tree(const StructuredGenealogy& g) { return g.tree(); }
};

}  // namespace mpcgs
