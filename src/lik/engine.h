// Pattern-major likelihood engine: the shared evaluation core behind three
// uses, all running the same strip kernels through the same pruneBlock /
// foldCategory bodies:
//
//  * logLikelihood — stateless full recomputation (DataLikelihood's path;
//    the paper's GPU strategy, §5.2.2). Every internal node is pruned into
//    per-thread block scratch.
//  * evaluate / evaluateDirty — a persistent arena with dirty-path updates
//    (LikelihoodCache; the production-LAMARC strategy).
//  * captureFrontier / overlayLogLikelihood — GMH proposal sets (§4.3). All
//    N proposals of one set share the region: only the path from the
//    target T through its parent P to the root differs between members.
//    The generator's strips of the internal nodes hanging off that path
//    (its frontier) are captured once per set; each proposal then prunes
//    only the path nodes and reads every other strip from the frontier.
//    The result is bitwise equal to logLikelihood on the same genealogy.
//
// Design, versus the seed's scalar per-pattern pruning:
//
//  * Partials are pattern-major ([pattern][state], contiguous per node), so
//    one node is processed as a single sweep over all its patterns by the
//    strip kernels (pruning_kernels.h) with the transition matrices held in
//    registers — the CPU image of one-GPU-thread-per-site.
//  * Tip partials depend only on the alignment, never on the genealogy;
//    they are packed once at construction and shared by every evaluation.
//  * Rescaling (§5.3) runs every kRescaleInterval tree levels as a separate
//    strip pass instead of a per-node per-pattern branch, and subtrees that
//    have never rescaled skip scale bookkeeping entirely.
//  * Pattern strips are partitioned into cache-sized blocks launched across
//    the thread pool (par/kernel.h launchBlocked): every worker prunes the
//    full post-order over its own pattern slice, so there is zero
//    synchronization between nodes. Block boundaries depend only on the
//    problem shape, so results are bitwise identical for any thread count.
//  * Rate categories are fused into the same blocked pass (each block
//    prunes all categories while its slice is cache-hot) for every use.
//  * Every evaluation adds its internal-node strip prunes (summed over
//    categories) to the lik.nodes_pruned registry counter.
#pragma once

#include <cstdint>
#include <vector>

#include "lik/partials_buffer.h"
#include "lik/rate_model.h"
#include "lik/site_pattern.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "seq/subst_model.h"

namespace mpcgs {

/// The generator's frontier for one GMH proposal set: the pattern-major
/// strips of every internal node that hangs off the path from a start node
/// (the region's target T) to the root, plus the generator's traversal
/// metadata those strips were pruned under. Filled by
/// LikelihoodEngine::captureFrontier and read-only afterwards, so any
/// number of threads may overlay from it at once. Storage is grow-only:
/// reusing one PathFrontier across sets allocates nothing once warm.
struct PathFrontier {
    AlignedDoubles partials;  ///< categories x count x stride*4
    AlignedDoubles scale;     ///< categories x count x stride
    std::vector<NodeId> members;        ///< frontier nodes, in slot order
    std::vector<std::int32_t> slot;     ///< per node id: slot, or -1
    std::vector<std::uint8_t> onPath;   ///< per node id: on start -> root
    std::vector<std::uint16_t> level;   ///< per node id: generator's level
    std::vector<std::uint8_t> hasScale; ///< per node id: generator's meta
    NodeId start = kNoNode;
    std::size_t pathLength = 0;
    std::size_t stride = 0;  ///< pattern stride of every strip

    std::size_t count() const { return members.size(); }
};

class LikelihoodEngine {
  public:
    /// Rescale every this many tree levels. With per-level partial shrink
    /// bounded below by the smallest transition probability, four levels
    /// stay far above the double underflow threshold between passes.
    static constexpr std::size_t kRescaleInterval = 4;

    /// Holds references: `patterns` and `model` must outlive the engine
    /// (DataLikelihood owns both and constructs the engine last).
    LikelihoodEngine(const SitePatterns& patterns, const SubstModel& model,
                     RateCategories rates);

    LikelihoodEngine(const LikelihoodEngine&) = delete;
    LikelihoodEngine& operator=(const LikelihoodEngine&) = delete;

    /// log P(D|G) by full recomputation. Thread-safe (per-thread scratch);
    /// pattern blocks run on `pool` when supplied.
    double logLikelihood(const Genealogy& g, ThreadPool* pool = nullptr) const;

    /// Full evaluation populating `buf` (the cached path's arena).
    double evaluate(const Genealogy& g, PartialsBuffer& buf, ThreadPool* pool = nullptr) const;

    /// Re-evaluate after `dirty` nodes (and their ancestors) changed,
    /// recomputing only the dirty closure — including its transition
    /// matrices, which the seed rebuilt for every node on every step.
    double evaluateDirty(const Genealogy& g, const std::vector<NodeId>& dirty,
                         PartialsBuffer& buf, ThreadPool* pool = nullptr) const;

    /// Capture `g`'s frontier along the path `start` -> root into `f`: prune
    /// every node off that path (the same stateless pass as logLikelihood,
    /// on the calling thread) and keep the strips of the internal nodes
    /// whose parent lies on the path.
    void captureFrontier(const Genealogy& g, NodeId start, PathFrontier& f) const;

    /// log P(D|g) for a genealogy that differs from the captured one only
    /// on the path: the same path nodes (same start, same ancestors), with
    /// new times and new links among the path and frontier. Prunes just
    /// the path and reads every off-path strip from `f`, on the calling
    /// thread (GMH runs one proposal per worker). Bitwise equal to
    /// logLikelihood(g). Thread-safe; `f` is only read.
    double overlayLogLikelihood(const PathFrontier& f, const Genealogy& g) const;

    std::size_t patternCount() const { return patterns_.patternCount(); }
    std::size_t patternStride() const { return stride_; }

    /// Pattern-major conditional likelihoods of tip `s` (strip layout).
    const double* tipPartials(std::size_t s) const {
        return tipPartials_.data() + s * stride_ * 4;
    }

    /// Traversal metadata for one genealogy: the per-node rescale schedule
    /// derived from pruning levels. Public so callers (and the engine's own
    /// thread-local scratch) can keep one warm across evaluations.
    struct Meta {
        std::vector<std::uint8_t> rescale;
        std::vector<std::uint8_t> hasScale;
    };

  private:
    /// Fill `meta` for `order`; `level` is per-node scratch. Reuses the
    /// vectors' capacity — no allocation once warm.
    void traversalMeta(const Genealogy& g, const std::vector<NodeId>& order, Meta& meta,
                       std::vector<std::uint16_t>& level) const;

    /// Pack transition matrices for all categories; `dst` is indexed
    /// [c * nodeCount + child]. `only` restricts to the given child ids
    /// (nullptr = every non-root node).
    void packMatrices(const Genealogy& g, TransMat* dst,
                      const std::vector<NodeId>* only = nullptr) const;

    /// Prune the nodes of `order` for category c over patterns [p0, p0+n),
    /// reading/writing through the view's pointer resolvers. One body for
    /// every use: StripView (stateless, cached, capture) and OverlayView,
    /// which reads frontier nodes' strips from a PathFrontier. Each view is
    /// its own compile-time instantiation, so the stateless path carries no
    /// per-node strip-source branch.
    struct StripView;
    struct OverlayView;
    template <class View>
    void pruneBlock(const Genealogy& g, const std::vector<NodeId>& order, const Meta& meta,
                    const TransMat* tmat, std::size_t c, const View& view,
                    std::size_t n) const;

    /// Root reduction for one category over a block: fills `site` with the
    /// per-pattern site log-likelihoods and either returns the weighted
    /// fold (single category) or log-adds into `acc` and returns 0.
    double foldCategory(const Genealogy& g, const Meta& meta, std::size_t c,
                        const StripView& view, std::size_t p0, std::size_t n, double* site,
                        double* acc) const;

    /// Blocked pruning + reduction through per-thread block scratch: the
    /// stateless path (f == nullptr) or the overlay of `f`.
    template <class View>
    double runScratch(const Genealogy& g, const std::vector<NodeId>& order, const Meta& meta,
                      const TransMat* tmat, const PathFrontier* f, ThreadPool* pool) const;

    /// Blocked pruning + reduction over the persistent arena (cached path).
    double runBlocked(const Genealogy& g, const std::vector<NodeId>& order, const Meta& meta,
                      PartialsBuffer& buf, ThreadPool* pool) const;

    std::size_t blockSize() const;

    const SitePatterns& patterns_;
    const SubstModel& model_;
    BaseFreqs pi_;
    RateCategories rates_;
    std::vector<double> logCatWeights_;
    std::size_t stride_ = 0;        ///< patternCount rounded up to 8
    AlignedDoubles tipPartials_;    ///< nSeq x stride*4, packed once
};

}  // namespace mpcgs
