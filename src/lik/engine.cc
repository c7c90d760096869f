#include "lik/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "obs/metrics.h"
#include "par/kernel.h"
#include "util/error.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

/// Per-thread scratch for blocked evaluation. Worker threads live as long
/// as their pool, so these arenas are allocated once per thread and then
/// reused by every subsequent block, call, and engine.
struct BlockScratch {
    AlignedDoubles partials;  ///< internals x blockSize x 4 (stateless path)
    AlignedDoubles scale;     ///< internals x blockSize (stateless path)
    AlignedDoubles site;      ///< blockSize per-pattern site logs
    AlignedDoubles acc;       ///< blockSize cross-category accumulator
};

thread_local BlockScratch tlScratch;

/// Per-thread scratch for the evaluation driver (the thread that calls
/// logLikelihood/evaluate/evaluateDirty, as opposed to the block workers):
/// traversal order, rescale metadata, packed transition matrices and block
/// sums. Warm after the first evaluation on a thread, so the steady-state
/// sampling loop performs zero heap allocation here.
struct EvalScratch {
    std::vector<NodeId> order;           ///< postorder evaluation order
    std::vector<NodeId> stack;           ///< traversal scratch
    std::vector<NodeId> sub;             ///< capture: off-path nodes; overlay: path
    std::vector<NodeId> touched;         ///< children whose matrices are packed
    std::vector<std::uint16_t> level;    ///< per-node pruning level
    LikelihoodEngine::Meta meta;
    std::vector<TransMat> tmat;          ///< stateless path: C x nodes
    std::vector<double> blockSums;       ///< chunk-indexed partial sums
};

thread_local EvalScratch tlEval;

/// Per-thread scratch for dirty-closure recomputation.
struct DirtyScratch {
    std::vector<std::uint8_t> mark;
    std::vector<NodeId> todo;
    std::vector<NodeId> touchedChildren;
    LikelihoodEngine::Meta meta;
};

thread_local DirtyScratch tlDirty;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Count the internal nodes of `order` times `categories` as strip prunes
/// (lik.nodes_pruned). The count is skipped while the registry is unarmed.
void countPrunes(const Genealogy& g, const std::vector<NodeId>& order, std::size_t categories) {
    if (!obs::armed()) return;
    std::size_t k = 0;
    for (const NodeId id : order) k += g.isTip(id) ? 0 : 1;
    obs::add(obs::Counter::LikNodesPruned, k * categories);
}

}  // namespace

/// Resolves the pattern strip of an internal node within one (category,
/// block) pass. `off4`/`off1` locate the block inside a full-length arena
/// strip (cached path) or are zero for block-local scratch strips
/// (stateless path); tip strips always live in the engine's full-length
/// rows, addressed through `tipOff4`.
struct LikelihoodEngine::StripView {
    double* part = nullptr;
    double* scl = nullptr;
    std::size_t stride4 = 0;
    std::size_t stride1 = 0;
    std::size_t off4 = 0;
    std::size_t off1 = 0;
    std::size_t tipOff4 = 0;

    double* partials(std::size_t internalIdx) const {
        return part + internalIdx * stride4 + off4;
    }
    double* scale(std::size_t internalIdx) const {
        return scl + internalIdx * stride1 + off1;
    }
    /// Child strips: the same storage as the node's own.
    const double* inPartials(std::size_t internalIdx) const { return partials(internalIdx); }
    const double* inScale(std::size_t internalIdx) const { return scale(internalIdx); }
};

/// A StripView over block scratch whose child reads of frontier nodes go
/// to a PathFrontier's full-length strips instead (the overlay path). Path
/// nodes, the only ones pruned, and the root always live in the scratch.
struct LikelihoodEngine::OverlayView : StripView {
    const std::int32_t* slot = nullptr;  ///< frontier slot by internal index
    const double* fpart = nullptr;       ///< frontier strips of category c
    const double* fscl = nullptr;
    std::size_t fstride4 = 0;
    std::size_t fstride1 = 0;
    std::size_t foff4 = 0;
    std::size_t foff1 = 0;

    const double* inPartials(std::size_t internalIdx) const {
        const std::int32_t k = slot[internalIdx];
        if (k < 0) return partials(internalIdx);
        return fpart + static_cast<std::size_t>(k) * fstride4 + foff4;
    }
    const double* inScale(std::size_t internalIdx) const {
        const std::int32_t k = slot[internalIdx];
        if (k < 0) return scale(internalIdx);
        return fscl + static_cast<std::size_t>(k) * fstride1 + foff1;
    }
};

LikelihoodEngine::LikelihoodEngine(const SitePatterns& patterns, const SubstModel& model,
                                   RateCategories rates)
    : patterns_(patterns),
      model_(model),
      pi_(model.stationary()),
      rates_(std::move(rates)) {
    rates_.validate();
    logCatWeights_.reserve(rates_.count());
    for (const double w : rates_.weights) logCatWeights_.push_back(std::log(w));

    const std::size_t P = patterns_.patternCount();
    const std::size_t nSeq = patterns_.sequenceCount();
    stride_ = roundUpTo(std::max<std::size_t>(P, 1), 8);
    tipPartials_.ensure(nSeq * stride_ * 4);
    for (std::size_t s = 0; s < nSeq; ++s) {
        double* row = tipPartials_.data() + s * stride_ * 4;
        fillTipStrip(patterns_.codesData(), nSeq, s, 0, row, P);
        // Padding patterns: benign ones so vector lanes never see garbage.
        for (std::size_t p = P; p < stride_; ++p)
            row[4 * p] = row[4 * p + 1] = row[4 * p + 2] = row[4 * p + 3] = 1.0;
    }
}

std::size_t LikelihoodEngine::blockSize() const {
    // Size pattern blocks so one block's partials + scale working set
    // (internals x (4+1) doubles per pattern) stays around 128 KiB —
    // comfortably cache-resident while leaving enough blocks to spread
    // across workers. Multiples of 8 keep every strip 64-byte aligned, and
    // the partition depends only on the problem shape, never on the pool.
    const std::size_t internals =
        std::max<std::size_t>(1, patterns_.sequenceCount() - 1);
    const std::size_t bytesPerPattern = internals * 5 * sizeof(double);
    std::size_t b = (128 * 1024) / bytesPerPattern;
    b = std::clamp<std::size_t>(b, 16, 2048);
    return b - b % 8;
}

void LikelihoodEngine::traversalMeta(const Genealogy& g, const std::vector<NodeId>& order,
                                     Meta& meta, std::vector<std::uint16_t>& level) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    meta.rescale.assign(nodes, 0);
    meta.hasScale.assign(nodes, 0);
    level.assign(nodes, 0);
    for (const NodeId id : order) {
        if (g.isTip(id)) continue;
        const TreeNode& nd = g.node(id);
        const std::size_t i = static_cast<std::size_t>(id);
        const std::size_t c0 = static_cast<std::size_t>(nd.child[0]);
        const std::size_t c1 = static_cast<std::size_t>(nd.child[1]);
        level[i] = static_cast<std::uint16_t>(1 + std::max(level[c0], level[c1]));
        meta.rescale[i] = level[i] % kRescaleInterval == 0;
        meta.hasScale[i] = meta.rescale[i] || meta.hasScale[c0] || meta.hasScale[c1];
    }
}

void LikelihoodEngine::packMatrices(const Genealogy& g, TransMat* dst,
                                    const std::vector<NodeId>* only) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    const std::size_t C = rates_.count();
    auto packOne = [&](NodeId id) {
        if (id == g.root()) return;
        const double t = g.branchLength(id);
        for (std::size_t c = 0; c < C; ++c)
            dst[c * nodes + static_cast<std::size_t>(id)].pack(
                model_.transition(rates_.rates[c] * t));
    };
    if (only != nullptr) {
        for (const NodeId id : *only) packOne(id);
    } else {
        for (NodeId id = 0; id < g.nodeCount(); ++id) packOne(id);
    }
}

template <class View>
void LikelihoodEngine::pruneBlock(const Genealogy& g, const std::vector<NodeId>& order,
                                  const Meta& meta, const TransMat* tmat, std::size_t c,
                                  const View& view, std::size_t n) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const TransMat* cat = tmat + c * nodes;

    auto partialsOf = [&](NodeId id) -> const double* {
        const std::size_t i = static_cast<std::size_t>(id);
        if (i < tips) return tipPartials_.data() + i * stride_ * 4 + view.tipOff4;
        return view.inPartials(i - tips);
    };
    auto scaleOf = [&](NodeId id) -> const double* {
        const std::size_t i = static_cast<std::size_t>(id);
        if (i < tips || !meta.hasScale[i]) return nullptr;
        return view.inScale(i - tips);
    };

    for (const NodeId id : order) {
        if (g.isTip(id)) continue;
        const TreeNode& nd = g.node(id);
        const std::size_t i = static_cast<std::size_t>(id);
        double* out = view.partials(i - tips);
        pruneStrip(cat[static_cast<std::size_t>(nd.child[0])],
                   cat[static_cast<std::size_t>(nd.child[1])], partialsOf(nd.child[0]),
                   partialsOf(nd.child[1]), out, n);
        if (meta.hasScale[i]) {
            double* so = view.scale(i - tips);
            addScaleStrips(scaleOf(nd.child[0]), scaleOf(nd.child[1]), so, n);
            if (meta.rescale[i]) rescaleStrip(out, so, n);
        }
    }
}

double LikelihoodEngine::foldCategory(const Genealogy& g, const Meta& meta, std::size_t c,
                                      const StripView& view, std::size_t p0, std::size_t n,
                                      double* site, double* acc) const {
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t r = static_cast<std::size_t>(g.root());
    const double* rp = r < tips ? tipPartials_.data() + r * stride_ * 4 + view.tipOff4
                                : view.partials(r - tips);
    const double* rs = (r < tips || !meta.hasScale[r]) ? nullptr : view.scale(r - tips);
    rootLogStrip(rp, rs, pi_, site, n);
    if (rates_.count() == 1) return weightedSumStrip(site, patterns_.weightsData() + p0, n);
    for (std::size_t p = 0; p < n; ++p)
        acc[p] = logAdd(acc[p], logCatWeights_[c] + site[p]);
    return 0.0;
}

double LikelihoodEngine::logLikelihood(const Genealogy& g, ThreadPool* pool) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    es.tmat.resize(rates_.count() * static_cast<std::size_t>(g.nodeCount()));
    packMatrices(g, es.tmat.data());
    return runScratch<StripView>(g, es.order, es.meta, es.tmat.data(), nullptr, pool);
}

template <class View>
double LikelihoodEngine::runScratch(const Genealogy& g, const std::vector<NodeId>& order,
                                    const Meta& meta, const TransMat* tmatData,
                                    const PathFrontier* f, ThreadPool* pool) const {
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t internals = static_cast<std::size_t>(g.nodeCount()) - tips;
    const std::size_t C = rates_.count();
    const std::size_t P = patterns_.patternCount();
    const std::size_t B = blockSize();
    countPrunes(g, order, C);

    std::vector<double>& blockSums = tlEval.blockSums;
    blockSums.assign((P + B - 1) / B, 0.0);
    launchBlocked(pool, P, B, [&](std::size_t bi, std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        BlockScratch& s = tlScratch;
        s.partials.ensure(std::max<std::size_t>(1, internals) * B * 4);
        s.scale.ensure(std::max<std::size_t>(1, internals) * B);
        s.site.ensure(B);
        s.acc.ensure(B);
        if (C > 1) std::fill_n(s.acc.data(), n, kNegInf);

        // One category at a time through the same block-local scratch: the
        // fused pass keeps the pattern slice cache-hot across categories.
        double sum = 0.0;
        const StripView base{s.partials.data(), s.scale.data(), B * 4, B, 0, 0, lo * 4};
        for (std::size_t c = 0; c < C; ++c) {
            if constexpr (std::is_same_v<View, OverlayView>) {
                const std::size_t F = f->count();
                const OverlayView view{base,
                                       f->slot.data() + tips,
                                       f->partials.data() + c * F * f->stride * 4,
                                       f->scale.data() + c * F * f->stride,
                                       f->stride * 4,
                                       f->stride,
                                       lo * 4,
                                       lo};
                pruneBlock(g, order, meta, tmatData, c, view, n);
            } else {
                pruneBlock(g, order, meta, tmatData, c, base, n);
            }
            sum = foldCategory(g, meta, c, base, lo, n, s.site.data(), s.acc.data());
        }
        if (C > 1) sum = weightedSumStrip(s.acc.data(), patterns_.weightsData() + lo, n);
        blockSums[bi] = sum;
    });

    double total = 0.0;
    for (const double s : blockSums) total += s;
    return total;
}

void LikelihoodEngine::captureFrontier(const Genealogy& g, NodeId start,
                                       PathFrontier& f) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    require(start >= 0 && start < g.nodeCount() && !g.isTip(start),
            "captureFrontier: start must be an internal node");
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t C = rates_.count();

    f.start = start;
    f.stride = stride_;
    f.onPath.assign(nodes, 0);
    f.pathLength = 0;
    for (NodeId cur = start; cur != kNoNode; cur = g.node(cur).parent) {
        f.onPath[static_cast<std::size_t>(cur)] = 1;
        ++f.pathLength;
    }
    // Frontier: internal children of path nodes that are off the path.
    // Everything else off the path lies below one of them.
    f.slot.assign(nodes, -1);
    f.members.clear();
    es.sub.clear();
    es.touched.clear();
    for (const NodeId id : es.order) {
        if (g.isTip(id)) continue;
        const TreeNode& nd = g.node(id);
        if (f.onPath[static_cast<std::size_t>(id)]) {
            for (const NodeId ch : nd.child) {
                if (g.isTip(ch) || f.onPath[static_cast<std::size_t>(ch)]) continue;
                f.slot[static_cast<std::size_t>(ch)] = static_cast<std::int32_t>(f.members.size());
                f.members.push_back(ch);
            }
            continue;
        }
        es.sub.push_back(id);
        es.touched.push_back(nd.child[0]);
        es.touched.push_back(nd.child[1]);
    }
    f.level = es.level;
    f.hasScale = es.meta.hasScale;

    const std::size_t F = f.count();
    f.partials.ensure(std::max<std::size_t>(1, C * F * stride_ * 4));
    f.scale.ensure(std::max<std::size_t>(1, C * F * stride_));
    es.tmat.resize(C * nodes);
    packMatrices(g, es.tmat.data(), &es.touched);
    countPrunes(g, es.sub, C);

    // The stateless pass over the off-path nodes, then each frontier strip
    // is copied out of the block scratch into its full-length row.
    const std::size_t P = patterns_.patternCount();
    const std::size_t B = blockSize();
    const std::size_t internals = nodes - tips;
    const Meta& meta = es.meta;
    launchBlocked(nullptr, P, B, [&](std::size_t, std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        BlockScratch& s = tlScratch;
        s.partials.ensure(std::max<std::size_t>(1, internals) * B * 4);
        s.scale.ensure(std::max<std::size_t>(1, internals) * B);
        const StripView view{s.partials.data(), s.scale.data(), B * 4, B, 0, 0, lo * 4};
        for (std::size_t c = 0; c < C; ++c) {
            pruneBlock(g, es.sub, meta, es.tmat.data(), c, view, n);
            for (std::size_t k = 0; k < F; ++k) {
                const std::size_t i = static_cast<std::size_t>(f.members[k]);
                const std::size_t row = c * F + k;
                std::memcpy(f.partials.data() + row * stride_ * 4 + lo * 4,
                            view.partials(i - tips), n * 4 * sizeof(double));
                if (meta.hasScale[i])
                    std::memcpy(f.scale.data() + row * stride_ + lo, view.scale(i - tips),
                                n * sizeof(double));
            }
        }
    });
}

double LikelihoodEngine::overlayLogLikelihood(const PathFrontier& f, const Genealogy& g) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    require(f.onPath.size() == nodes && f.stride == stride_,
            "overlayLogLikelihood: frontier captured for another shape");
    EvalScratch& es = tlEval;
    Meta& meta = es.meta;
    meta.rescale.assign(nodes, 0);
    meta.hasScale = f.hasScale;
    es.level = f.level;
    es.sub.clear();
    es.touched.clear();

    // The path bottom-up, with its rescale schedule recomputed from the
    // frontier's levels exactly as traversalMeta would for all of g.
    NodeId last = kNoNode;
    for (NodeId cur = f.start; cur != kNoNode; cur = g.node(cur).parent) {
        const std::size_t i = static_cast<std::size_t>(cur);
        require(f.onPath[i] && !g.isTip(cur), "overlayLogLikelihood: path differs from capture");
        const TreeNode& nd = g.node(cur);
        for (const NodeId ch : nd.child) {
            const std::size_t ci = static_cast<std::size_t>(ch);
            require(f.onPath[ci] || g.isTip(ch) || f.slot[ci] >= 0,
                    "overlayLogLikelihood: off-path child is not in the frontier");
            es.touched.push_back(ch);
        }
        const std::size_t c0 = static_cast<std::size_t>(nd.child[0]);
        const std::size_t c1 = static_cast<std::size_t>(nd.child[1]);
        es.level[i] = static_cast<std::uint16_t>(1 + std::max(es.level[c0], es.level[c1]));
        meta.rescale[i] = es.level[i] % kRescaleInterval == 0;
        meta.hasScale[i] = meta.rescale[i] || meta.hasScale[c0] || meta.hasScale[c1];
        es.sub.push_back(cur);
        last = cur;
    }
    require(es.sub.size() == f.pathLength && last == g.root(),
            "overlayLogLikelihood: path differs from capture");

    es.tmat.resize(rates_.count() * nodes);
    packMatrices(g, es.tmat.data(), &es.touched);
    return runScratch<OverlayView>(g, es.sub, meta, es.tmat.data(), &f, nullptr);
}

double LikelihoodEngine::evaluate(const Genealogy& g, PartialsBuffer& buf,
                                  ThreadPool* pool) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t internals = static_cast<std::size_t>(g.nodeCount()) - tips;
    const std::size_t C = rates_.count();

    buf.ensure(C, tips, internals, stride_);
    buf.rescale = es.meta.rescale;
    buf.hasScale = es.meta.hasScale;
    packMatrices(g, buf.tmat.data());

    const double total = runBlocked(g, es.order, es.meta, buf, pool);
    buf.primed = true;
    return total;
}

double LikelihoodEngine::evaluateDirty(const Genealogy& g, const std::vector<NodeId>& dirty,
                                       PartialsBuffer& buf, ThreadPool* pool) const {
    require(buf.primed && buf.nodeCount() == static_cast<std::size_t>(g.nodeCount()),
            "LikelihoodCache: genealogy shape changed; call evaluate()");
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());

    // Dirty closure: every listed node and all of its ancestors.
    DirtyScratch& ds = tlDirty;
    std::vector<std::uint8_t>& mark = ds.mark;
    mark.assign(nodes, 0);
    for (NodeId d : dirty) {
        NodeId cur = d;
        while (cur != kNoNode && !mark[static_cast<std::size_t>(cur)]) {
            mark[static_cast<std::size_t>(cur)] = 1;
            cur = g.node(cur).parent;
        }
    }

    // Recompute order = marked internal nodes, children before parents; the
    // only transition matrices that can have changed are those of the
    // closure's children (a branch length is t(parent) - t(child), and only
    // closure members moved), so just those are re-packed — the seed
    // re-derived all 2n matrices every step.
    std::vector<NodeId>& todo = ds.todo;
    std::vector<NodeId>& touchedChildren = ds.touchedChildren;
    todo.clear();
    touchedChildren.clear();
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    for (const NodeId id : es.order) {
        if (!mark[static_cast<std::size_t>(id)] || g.isTip(id)) continue;
        todo.push_back(id);
        const TreeNode& nd = g.node(id);
        touchedChildren.push_back(nd.child[0]);
        touchedChildren.push_back(nd.child[1]);
        // Scale reachability can change with the topology; rescale flags
        // keep their last full-evaluation schedule (any schedule is valid —
        // partials and scale strips always move together).
        buf.hasScale[static_cast<std::size_t>(id)] =
            buf.rescale[static_cast<std::size_t>(id)] ||
            (!g.isTip(nd.child[0]) && buf.hasScale[static_cast<std::size_t>(nd.child[0])]) ||
            (!g.isTip(nd.child[1]) && buf.hasScale[static_cast<std::size_t>(nd.child[1])]);
    }
    packMatrices(g, buf.tmat.data(), &touchedChildren);

    ds.meta.rescale = buf.rescale;
    ds.meta.hasScale = buf.hasScale;
    return runBlocked(g, todo, ds.meta, buf, pool);
}

double LikelihoodEngine::runBlocked(const Genealogy& g, const std::vector<NodeId>& order,
                                    const Meta& meta, PartialsBuffer& buf,
                                    ThreadPool* pool) const {
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t C = rates_.count();
    const std::size_t P = patterns_.patternCount();
    const std::size_t B = blockSize();
    countPrunes(g, order, C);

    std::vector<double>& blockSums = tlEval.blockSums;
    blockSums.assign((P + B - 1) / B, 0.0);

    launchBlocked(pool, P, B, [&](std::size_t bi, std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        BlockScratch& s = tlScratch;
        s.site.ensure(B);
        s.acc.ensure(B);
        if (C > 1) std::fill_n(s.acc.data(), n, kNegInf);

        double sum = 0.0;
        for (std::size_t c = 0; c < C; ++c) {
            const StripView v{buf.partials(c, tips), buf.scale(c, tips),
                              buf.patternStride * 4, buf.patternStride,
                              lo * 4, lo, lo * 4};
            pruneBlock(g, order, meta, buf.tmat.data(), c, v, n);
            sum = foldCategory(g, meta, c, v, lo, n, s.site.data(), s.acc.data());
        }
        if (C > 1) sum = weightedSumStrip(s.acc.data(), patterns_.weightsData() + lo, n);
        blockSums[bi] = sum;
    });

    double total = 0.0;
    for (const double s : blockSums) total += s;
    return total;
}

}  // namespace mpcgs
