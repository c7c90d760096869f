#include "smc/online_update.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "coalescent/prior.h"
#include "core/numeric_guard.h"
#include "core/recoalesce.h"
#include "lik/forest_kernels.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/kernel.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

// ---------------------------------------------------------------------------
// Tripod scorer: exact grafted-tree log-likelihood as a function of the
// attachment point, without ever building the grafted tree.
//
// Lower partials D_v (conditional vectors of the subtree below v against
// the ENLARGED pattern set) are supplied from outside — backend slots in
// the add-sequence path, CPU buffers in the test hook. The scorer adds the
// OUTER partials: for every non-root v with parent w,
//
//   S_v,c(y)  = sum_z M_c(t_w - t_v)(y, z) D_v,c(z)       (D pushed up v's
//                                                          branch)
//   T_v,c(y)  = P(data outside v's subtree | state y at w), including the
//               root marginalization over pi:
//                 v child of the root:  T_v = pi .* S_sib(v)
//                 otherwise:            T_v = U_w .* S_sib(v),
//                 U_w,c(y) = sum_y' T_w,c(y') M_c(len_w)(y', y),
//
// so the likelihood of the tree with a new tip X joined to branch (v, w)
// by a coalescent node u at height h in (t_v, t_w) factorizes per pattern
// and category as the tripod
//
//   site_c = sum_y T_v,c(y) sum_z M_c(t_w - h)(y, z) A_c(z) B_c(z),
//   A_c(z) = sum_a M_c(h - t_v)(z, a) D_v,c(a),
//   B_c(z) = sum_b M_c(h)(z, b) X_c(b),
//
// with per-pattern log scale scaleT_v + scaleD_v (the new tip carries
// scale 0). Attaching to the ROOT LINEAGE (u above the old root at height
// h > t_root) instead marginalizes pi at u directly:
//
//   site_c = sum_y pi_y [sum_z M_c(h - t_root)(y, z) D_root,c(z)]
//                       [sum_b M_c(h)(y, b) X_c(b)],
//
// valid because every supported model is time-reversible, so re-rooting at
// u leaves the likelihood unchanged. Matrix rows index the SOURCE
// (ancestral) state throughout, matching SubstModel::transition.
//
// Every pass runs in the engine's strip form (lik/pruning_kernels.h): the
// transition matrices are copied into local flat arrays, and each loop
// sweeps one category's contiguous pattern strip with no dependence
// between patterns. logLikAt splits an evaluation in two: a site pass
// accumulates the category-weighted tripod sums into a P-length strip (no
// log, so the loop vectorizes), then a fold adds
// w_p * (log(site_p) + scale_p) in pattern order. The split reorders no
// arithmetic: each pattern's sums run in the order of a pattern-by-pattern
// evaluation, so the scores are bitwise those of that form. Keep each
// per-pattern expression's shape when editing these loops: native builds
// contract multiply-adds into FMAs, and the bits depend on which products
// the compiler fuses.
// ---------------------------------------------------------------------------

/// Row-major copy of a transition matrix: out[4*r + c] = m(r, c).
void flatten(const Matrix4& m, double out[16]) {
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c) out[4 * r + c] = m(r, c);
}

/// out[p][x] = sum_y m[4y + x] in[p][y] over n patterns. With m packed
/// like TransMat (m[4y + x] = M(x, y)) this pushes a lower partial up its
/// branch; with M row-major it pushes an outer partial down.
void applyStrip(const double* __restrict m, const double* __restrict in,
                double* __restrict out, std::size_t n) {
    for (std::size_t p = 0; p < n; ++p) {
        const double* i = in + 4 * p;
        double* o = out + 4 * p;
        for (std::size_t x = 0; x < 4; ++x)
            o[x] = m[x] * i[0] + m[4 + x] * i[1] + m[8 + x] * i[2] + m[12 + x] * i[3];
    }
}

/// Branch tripod of one category over n patterns:
/// site[p] += w * sum_y t[p][y] sum_z U(y, z) (A d[p])_z (B x[p])_z.
void branchTripodStrip(const double* __restrict u, const double* __restrict a,
                       const double* __restrict b, const double* __restrict t,
                       const double* __restrict d, const double* __restrict x, double w,
                       double* __restrict site, std::size_t n) {
    for (std::size_t p = 0; p < n; ++p) {
        const double* tp = t + 4 * p;
        const double* dp = d + 4 * p;
        const double* xp = x + 4 * p;
        double ab[4];
        for (std::size_t z = 0; z < 4; ++z) {
            const double az = a[4 * z] * dp[0] + a[4 * z + 1] * dp[1] + a[4 * z + 2] * dp[2] +
                              a[4 * z + 3] * dp[3];
            const double bz = b[4 * z] * xp[0] + b[4 * z + 1] * xp[1] + b[4 * z + 2] * xp[2] +
                              b[4 * z + 3] * xp[3];
            ab[z] = az * bz;
        }
        double acc = 0.0;
        for (std::size_t y = 0; y < 4; ++y) {
            const double inner = u[4 * y] * ab[0] + u[4 * y + 1] * ab[1] +
                                 u[4 * y + 2] * ab[2] + u[4 * y + 3] * ab[3];
            acc += tp[y] * inner;
        }
        site[p] += w * acc;
    }
}

/// Root-lineage tripod of one category over n patterns:
/// site[p] += w * sum_y pi_y (A d[p])_y (B x[p])_y.
void rootTripodStrip(const double* __restrict pi, const double* __restrict a,
                     const double* __restrict b, const double* __restrict d,
                     const double* __restrict x, double w, double* __restrict site,
                     std::size_t n) {
    for (std::size_t p = 0; p < n; ++p) {
        const double* dp = d + 4 * p;
        const double* xp = x + 4 * p;
        double acc = 0.0;
        for (std::size_t y = 0; y < 4; ++y) {
            const double ay = a[4 * y] * dp[0] + a[4 * y + 1] * dp[1] + a[4 * y + 2] * dp[2] +
                              a[4 * y + 3] * dp[3];
            const double by = b[4 * y] * xp[0] + b[4 * y + 1] * xp[1] + b[4 * y + 2] * xp[2] +
                              b[4 * y + 3] * xp[3];
            acc += pi[y] * ay * by;
        }
        site[p] += w * acc;
    }
}

class TripodScorer {
  public:
    TripodScorer(const SitePatterns& patterns, const SubstModel& model,
                 const BaseFreqs& pi, const RateCategories& rates, const Genealogy& tree)
        : patterns_(patterns),
          model_(model),
          pi_(pi),
          rates_(rates),
          tree_(tree),
          P_(patterns.patternCount()),
          C_(rates.count()),
          vlen_(C_ * P_ * 4),
          site_(P_) {
        const std::size_t nodes = static_cast<std::size_t>(tree.nodeCount());
        lowData_.assign(nodes, nullptr);
        lowScale_.assign(nodes, nullptr);
    }

    /// Lower conditional vectors of node `v`: data[(c*P+p)*4+x] plus the
    /// per-pattern log scale. Must be set for every node reachable from the
    /// root before buildOuter().
    void setLower(NodeId v, const double* data, const double* scale) {
        lowData_[static_cast<std::size_t>(v)] = data;
        lowScale_[static_cast<std::size_t>(v)] = scale;
    }

    /// The new tip's conditional vectors (indicator columns, scale 0).
    void setNewTip(const double* data) { tip_ = data; }

    /// Compute S and T for the whole tree (preorder, parents first); U_w
    /// lives only while w's children are filled.
    void buildOuter() {
        const std::size_t nodes = static_cast<std::size_t>(tree_.nodeCount());
        sBuf_.assign(nodes * vlen_, 0.0);
        uBuf_.assign(vlen_, 0.0);
        tBuf_.assign(nodes * vlen_, 0.0);
        tScale_.assign(nodes * P_, 0.0);

        // S_v for every non-root node.
        for (NodeId v = 0; v < tree_.nodeCount(); ++v) {
            if (v == tree_.root()) continue;
            const double len = tree_.branchLength(v);
            const double* d = lowData_[static_cast<std::size_t>(v)];
            double* s = sBuf_.data() + static_cast<std::size_t>(v) * vlen_;
            for (std::size_t c = 0; c < C_; ++c) {
                double m[16];
                model_.transition(rates_.rates[c] * len).packTransposed(m);
                applyStrip(m, d + c * P_ * 4, s + c * P_ * 4, P_);
            }
        }

        // U and T, parents before children.
        double* u = uBuf_.data();
        for (NodeId w : tree_.preorder()) {
            if (tree_.isTip(w)) continue;
            if (w == tree_.root()) {
                for (std::size_t i = 0; i < vlen_; ++i) u[i] = pi_[i % 4];
            } else {
                const double len = tree_.branchLength(w);
                const double* t = tBuf_.data() + static_cast<std::size_t>(w) * vlen_;
                for (std::size_t c = 0; c < C_; ++c) {
                    double m[16];
                    flatten(model_.transition(rates_.rates[c] * len), m);
                    applyStrip(m, t + c * P_ * 4, u + c * P_ * 4, P_);
                }
            }
            const double* uScale =
                w == tree_.root() ? nullptr : tScale_.data() + static_cast<std::size_t>(w) * P_;

            for (int side = 0; side < 2; ++side) {
                const NodeId v = tree_.node(w).child[static_cast<std::size_t>(side)];
                const NodeId sib = tree_.node(w).child[static_cast<std::size_t>(1 - side)];
                const double* s = sBuf_.data() + static_cast<std::size_t>(sib) * vlen_;
                const double* sibScale = lowScale_[static_cast<std::size_t>(sib)];
                double* t = tBuf_.data() + static_cast<std::size_t>(v) * vlen_;
                double* ts = tScale_.data() + static_cast<std::size_t>(v) * P_;
                for (std::size_t i = 0; i < vlen_; ++i) t[i] = u[i] * s[i];
                for (std::size_t p = 0; p < P_; ++p)
                    ts[p] = (uScale ? uScale[p] : 0.0) + sibScale[p];
                // Per-pattern max rescale across categories (the same
                // discipline as forestRescaleRange) so deep outer products
                // cannot underflow.
                for (std::size_t p = 0; p < P_; ++p) {
                    double m = 0.0;
                    for (std::size_t c = 0; c < C_; ++c)
                        for (int y = 0; y < 4; ++y)
                            m = std::max(m, t[(c * P_ + p) * 4 + y]);
                    if (m > 0.0 && std::isfinite(m)) {
                        const double inv = 1.0 / m;
                        for (std::size_t c = 0; c < C_; ++c)
                            for (int y = 0; y < 4; ++y) t[(c * P_ + p) * 4 + y] *= inv;
                        ts[p] += std::log(m);
                    }
                }
            }
        }
    }

    /// log-likelihood of the grafted tree for attachment node `v` at height
    /// `h`; v == root() means the root lineage (h above the old root).
    double logLikAt(NodeId v, double h) {
        ++evaluations_;
        double* site = site_.data();
        std::fill(site_.begin(), site_.end(), 0.0);
        const double* d = lowData_[static_cast<std::size_t>(v)];
        const double* dScale = lowScale_[static_cast<std::size_t>(v)];
        double a[16], b[16];
        if (v == tree_.root()) {
            const double tr = tree_.node(v).time;
            for (std::size_t c = 0; c < C_; ++c) {
                flatten(model_.transition(rates_.rates[c] * (h - tr)), a);
                flatten(model_.transition(rates_.rates[c] * h), b);
                rootTripodStrip(pi_.data(), a, b, d + c * P_ * 4, tip_ + c * P_ * 4,
                                rates_.weights[c], site, P_);
            }
            return foldSites(nullptr, dScale);
        }

        const NodeId w = tree_.node(v).parent;
        const double tv = tree_.node(v).time;
        const double tw = tree_.node(w).time;
        const double* t = tBuf_.data() + static_cast<std::size_t>(v) * vlen_;
        double u[16];
        for (std::size_t c = 0; c < C_; ++c) {
            flatten(model_.transition(rates_.rates[c] * (tw - h)), u);
            flatten(model_.transition(rates_.rates[c] * (h - tv)), a);
            flatten(model_.transition(rates_.rates[c] * h), b);
            branchTripodStrip(u, a, b, t + c * P_ * 4, d + c * P_ * 4, tip_ + c * P_ * 4,
                              rates_.weights[c], site, P_);
        }
        return foldSites(tScale_.data() + static_cast<std::size_t>(v) * P_, dScale);
    }

    /// logLikAt calls so far.
    std::size_t evaluations() const { return evaluations_; }

  private:
    /// sum_p w_p * (log(site_p) + ts_p + ds_p) in pattern order; a zero
    /// site gives -inf. `ts` may be null (no outer scale).
    double foldSites(const double* ts, const double* ds) const {
        double total = 0.0;
        for (std::size_t p = 0; p < P_; ++p) {
            double logSite = -std::numeric_limits<double>::infinity();
            if (site_[p] > 0.0) {
                logSite = std::log(site_[p]);
                if (ts) logSite += ts[p];
                logSite += ds[p];
            }
            total += patterns_.weight(p) * logSite;
        }
        return total;
    }

    const SitePatterns& patterns_;
    const SubstModel& model_;
    const BaseFreqs& pi_;
    const RateCategories& rates_;
    const Genealogy& tree_;
    std::size_t P_, C_, vlen_;
    std::vector<const double*> lowData_, lowScale_;
    const double* tip_ = nullptr;
    std::vector<double> sBuf_, uBuf_, tBuf_, tScale_;
    std::vector<double> site_;  ///< the site pass's per-pattern sums
    std::size_t evaluations_ = 0;
};

/// Fixed-iteration golden-section maximum of f over [lo, hi]. The
/// evaluation points are a deterministic function of (lo, hi, iters), so
/// the guided proposal stays a deterministic function of the particle
/// state (no adaptive tolerance).
template <class F>
double goldenSectionMax(double lo, double hi, std::size_t iters, F&& f) {
    constexpr double kInvPhi = 0.6180339887498949;
    double a = lo, b = hi;
    double x1 = b - kInvPhi * (b - a);
    double x2 = a + kInvPhi * (b - a);
    double f1 = f(x1);
    double f2 = f(x2);
    for (std::size_t i = 0; i < iters; ++i) {
        if (f1 < f2) {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + kInvPhi * (b - a);
            f2 = f(x2);
        } else {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - kInvPhi * (b - a);
            f1 = f(x1);
        }
    }
    return std::max(f1, f2);
}

/// The enlarged-arena graft: old tips keep their ids, the new tip becomes
/// id n, old internals shift by one (v -> v+1) and the new coalescent node
/// takes id 2n, joining the new tip to (the branch above) `attach` at
/// height h. attach == root grafts above the old root (the new node
/// becomes the root).
Genealogy graftTip(const Genealogy& g, NodeId attach, double h,
                   const std::vector<std::string>& names) {
    const int n = g.tipCount();
    const NodeId newTip = n;
    const NodeId join = 2 * n;
    Genealogy out(n + 1);
    const auto map = [n](NodeId id) { return id < n ? id : id + 1; };
    for (NodeId v = n; v < g.nodeCount(); ++v) out.node(map(v)).time = g.node(v).time;
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
        if (v == attach) continue;
        const NodeId par = g.node(v).parent;
        if (par != kNoNode) out.link(map(par), map(v));
    }
    out.node(join).time = h;
    if (attach == g.root()) {
        out.link(join, map(attach));
        out.link(join, newTip);
        out.setRoot(join);
    } else {
        out.link(map(g.node(attach).parent), join);
        out.link(join, map(attach));
        out.link(join, newTip);
        out.setRoot(map(g.root()));
    }
    out.setTipNames(names);
    return out;
}

/// Hash of a tree's shape and node times, for bucketing equal trees.
/// std::hash<double> maps +0.0 and -0.0 alike, so trees that compare equal
/// always share a bucket.
std::size_t treeHash(const Genealogy& g) {
    std::size_t h = std::hash<NodeId>{}(g.root());
    const auto mix = [&h](std::size_t x) {
        h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
        const TreeNode& node = g.node(v);
        mix(std::hash<NodeId>{}(node.parent));
        mix(std::hash<NodeId>{}(node.child[0]));
        mix(std::hash<NodeId>{}(node.child[1]));
        mix(std::hash<double>{}(node.time));
    }
    return h;
}

/// Particle indices grouped by equal trees (Genealogy::operator==), each
/// group ascending and the groups ordered by their lowest member. Depends
/// on the trees alone, never on the pool.
std::vector<std::vector<std::size_t>> groupEqualTrees(
    const std::vector<OnlineParticle>& particles) {
    const auto hash = [](const Genealogy* g) { return treeHash(*g); };
    const auto equal = [](const Genealogy* a, const Genealogy* b) { return *a == *b; };
    std::unordered_map<const Genealogy*, std::size_t, decltype(hash), decltype(equal)> groupOf(
        particles.size(), hash, equal);
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t p = 0; p < particles.size(); ++p) {
        const auto [it, fresh] = groupOf.try_emplace(&particles[p].tree, groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(p);
    }
    return groups;
}

}  // namespace

OnlineState initOnlineState(const Alignment& aln, double theta, const SmcOptions& smc,
                            const std::string& substModel, std::uint64_t seed,
                            ThreadPool* pool) {
    const std::unique_ptr<SubstModel> model = makeInferenceModel(substModel, aln);
    DataLikelihood lik(aln, *model);
    const std::unique_ptr<LikelihoodBackend> backend =
        makeLikelihoodBackend(smc.backend, lik);
    SmcFilter filter(*backend, theta, smc, seed, pool);
    while (!filter.done()) filter.step();

    OnlineState st;
    st.alignment = aln;
    st.substModel = substModel;
    st.theta = theta;
    st.seed = seed;
    st.logZ = filter.logZ();
    ParticleCloud& cloud = filter.cloud();
    const std::size_t N = cloud.size();
    const std::span<const double> logW = std::as_const(cloud).logWeights();
    st.particles.resize(N);
    for (std::size_t p = 0; p < N; ++p) {
        Particle& src = cloud.particle(p);
        src.tree.setRoot(src.roots.front());
        st.particles[p].tree = std::move(src.tree);
        st.particles[p].logW = logW[p];
        st.particles[p].logL = src.rootLogL.front();
    }
    st.hostRng = cloud.hostRng();
    st.slotRngs.reserve(N);
    for (std::size_t p = 0; p < N; ++p) st.slotRngs.push_back(cloud.slotRng(p));
    return st;
}

OnlineSmcUpdater::OnlineSmcUpdater(OnlineState& state, const OnlineOptions& opts,
                                   ThreadPool* pool)
    : state_(state), opts_(opts), pool_(pool) {
    if (!(opts.essThreshold >= 0.0 && opts.essThreshold <= 1.0))
        throw ConfigError("online: ESS threshold must lie in [0, 1]");
    if (opts.blockSize == 0) throw ConfigError("online: particle block size must be >= 1");
    if (opts.heightSearchIterations < 2)
        throw ConfigError("online: height search needs >= 2 iterations");
    if (state.particles.empty()) throw ConfigError("online: state holds no particles");
    if (state.slotRngs.size() != state.particles.size())
        throw ConfigError("online: state RNG stream count does not match particle count");
    if (state.theta <= 0.0) throw ConfigError("online: theta must be positive");
}

OnlineUpdateResult OnlineSmcUpdater::addSequence(const Sequence& seq) {
    const obs::TraceSpan span("online_update", "smc");
    const std::size_t N = state_.particles.size();
    const int n = static_cast<int>(state_.alignment.sequenceCount());
    const double theta = state_.theta;
    if (seq.length() != state_.alignment.length())
        throw ConfigError("online: new sequence '" + seq.name() + "' has length " +
                          std::to_string(seq.length()) + ", alignment has " +
                          std::to_string(state_.alignment.length()));
    for (const Sequence& s : state_.alignment.sequences())
        if (s.name() == seq.name())
            throw ConfigError("online: duplicate sequence name '" + seq.name() + "'");

    // The enlarged alignment compresses to a DIFFERENT pattern set, so the
    // whole likelihood stack is rebuilt fresh per update (model frequencies
    // re-estimated from the enlarged data — legitimate for the importance
    // ratio because the old-target denominator uses the CACHED old logL).
    std::vector<Sequence> seqs = state_.alignment.sequences();
    seqs.push_back(seq);
    const Alignment newAln(std::move(seqs));
    const std::unique_ptr<SubstModel> model =
        makeInferenceModel(state_.substModel, newAln);
    const DataLikelihood lik(newAln, *model);
    const std::unique_ptr<LikelihoodBackend> backend =
        makeLikelihoodBackend(opts_.backend, lik);
    const std::vector<std::string> newNames = newAln.names();

    // Everything Phases 1 and 2 compute before a particle's own draws is a
    // pure function of its tree, so it runs once per group of equal trees
    // (resampled copies); each group is represented by its lowest member.
    const std::vector<std::vector<std::size_t>> groups = groupEqualTrees(state_.particles);
    const std::size_t G = groups.size();
    const auto treeOf = [&](std::size_t grp) -> const Genealogy& {
        return state_.particles[groups[grp].front()].tree;
    };

    // --- Phase 1: rebuild every group's lower partials against the new
    // pattern set through the backend. Slot map: tips [0, n] shared (the
    // new tip is sequence n), then (n-1) internal slots per group.
    const std::size_t tipSlots = static_cast<std::size_t>(n) + 1;
    const std::size_t perTree = static_cast<std::size_t>(n) - 1;
    backend->resizeSlots(tipSlots + G * perTree);
    const auto slotOf = [&](std::size_t grp, NodeId id) {
        return static_cast<LikelihoodBackend::Slot>(
            id < n ? static_cast<std::size_t>(id)
                   : tipSlots + grp * perTree + static_cast<std::size_t>(id - n));
    };
    for (int t = 0; t <= n; ++t)
        backend->tipInit(static_cast<LikelihoodBackend::Slot>(t), t);
    backend->flush(pool_);

    // Level-by-level so a batch never chains dependent combines: level(v) =
    // 1 + max(level of children), tips at level 0. All of one level's
    // combines — across ALL groups — run as one generation flush.
    const int nodes = 2 * n - 1;
    std::vector<std::vector<int>> levels(G);
    int maxLevel = 0;
    for (std::size_t grp = 0; grp < G; ++grp) {
        const Genealogy& g = treeOf(grp);
        levels[grp].assign(static_cast<std::size_t>(nodes), 0);
        for (NodeId v : g.postorder()) {
            if (g.isTip(v)) continue;
            const int l0 = levels[grp][static_cast<std::size_t>(g.node(v).child[0])];
            const int l1 = levels[grp][static_cast<std::size_t>(g.node(v).child[1])];
            levels[grp][static_cast<std::size_t>(v)] = 1 + std::max(l0, l1);
            maxLevel = std::max(maxLevel, levels[grp][static_cast<std::size_t>(v)]);
        }
    }
    for (int L = 1; L <= maxLevel; ++L) {
        for (std::size_t grp = 0; grp < G; ++grp) {
            const Genealogy& g = treeOf(grp);
            for (NodeId v = n; v < nodes; ++v) {
                if (levels[grp][static_cast<std::size_t>(v)] != L) continue;
                const NodeId a = g.node(v).child[0];
                const NodeId b = g.node(v).child[1];
                backend->combine(slotOf(grp, v), slotOf(grp, a),
                                 g.node(v).time - g.node(a).time, slotOf(grp, b),
                                 g.node(v).time - g.node(b).time);
            }
        }
        backend->flush(pool_);
    }

    // --- Phase 2: guided attachment, one pool task per group (grain 1) so
    // at most one scorer per worker is alive. Candidates are the 2n-2
    // non-root nodes in id order plus the root lineage LAST; each
    // candidate's weight is its height-optimized tripod log-likelihood,
    // softmax-normalized. Members draw from their slot-pinned streams, so
    // the phase is bitwise invariant to the worker count.
    std::vector<double> delta(N, 0.0);
    std::vector<double> newLogL(N, 0.0);
    std::vector<Genealogy> newTrees(N);
    forEachIndex(
        pool_, G,
        [&](std::size_t grp) {
            const Genealogy& g = treeOf(grp);
            TripodScorer scorer(lik.patterns(), lik.model(), lik.rootFreqs(),
                                lik.rateCategories(), g);
            for (NodeId v = 0; v < nodes; ++v)
                scorer.setLower(v, backend->slotData(slotOf(grp, v)).data(),
                                backend->slotScale(slotOf(grp, v)).data());
            scorer.setNewTip(
                backend->slotData(static_cast<LikelihoodBackend::Slot>(n)).data());
            scorer.buildOuter();

            std::vector<NodeId> cands;
            cands.reserve(static_cast<std::size_t>(nodes));
            for (NodeId v = 0; v < nodes; ++v)
                if (v != g.root()) cands.push_back(v);
            cands.push_back(g.root());  // the root lineage, by convention last

            const double tRoot = g.node(g.root()).time;
            std::vector<double> phi(cands.size());
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const NodeId v = cands[i];
                const double lo = v == g.root() ? tRoot : g.node(v).time;
                const double hi =
                    v == g.root() ? tRoot + 2.0 * theta : g.node(g.node(v).parent).time;
                phi[i] = goldenSectionMax(lo, hi, opts_.heightSearchIterations,
                                          [&](double h) { return scorer.logLikAt(v, h); });
            }
            const double logQNorm = logSumExp(phi);
            // The old prior comes from the ORIGINAL tree (the enlarged arena
            // holds unlinked nodes, so its intervals would be wrong).
            const double oldLogPrior = logCoalescentPrior(g, theta);

            for (const std::size_t p : groups[grp]) {
                Mt19937& rng = state_.slotRngs[p];
                const std::size_t pick = rng.categoricalFromLog(phi);
                const NodeId attach = cands[pick];
                const double logQBranch = phi[pick] - logQNorm;
                double h, logQHeight;
                if (attach == g.root()) {
                    // Shifted exponential above the old root at the Kingman
                    // two-lineage rate — an exact, easily-inverted density.
                    const double rate = 2.0 / theta;
                    const double e = rng.exponential(rate);
                    h = tRoot + e;
                    logQHeight = std::log(rate) - rate * e;
                } else {
                    const double lo = g.node(attach).time;
                    const double hi = g.node(g.node(attach).parent).time;
                    h = rng.uniform(lo, hi);
                    logQHeight = -std::log(hi - lo);
                }

                newLogL[p] = scorer.logLikAt(attach, h);
                newTrees[p] = graftTip(g, attach, h, newNames);
                // Exact importance ratio: enlarged target over old target times
                // proposal.
                delta[p] = newLogL[p] + logCoalescentPrior(newTrees[p], theta) -
                           state_.particles[p].logL - oldLogPrior - logQBranch - logQHeight;
            }
            obs::add(obs::Counter::SmcOnlineTripodEvals, scorer.evaluations());
        },
        /*grain=*/1);

    // --- Phase 3 (serial): reweight, guard, commit. The fail point lives
    // here so its evaluation count (one per update) is deterministic.
    if (const auto hit = MPCGS_FAILPOINT("online.reweight"); hit.fired()) {
        if (hit.action == failpoint::Action::Nan)
            delta[0] = std::numeric_limits<double>::quiet_NaN();
        else
            throw InjectedFaultError("online.reweight");
    }
    std::vector<double> logW(N);
    for (std::size_t p = 0; p < N; ++p) logW[p] = state_.particles[p].logW + delta[p];
    // Old weights are normalized, so logSumExp(logW + delta) estimates
    // log P(D_{n+1}) - log P(D_n) directly.
    const double logZInc = logSumExp(logW);
    if (!std::isfinite(logZInc)) {
        std::size_t finiteD = 0;
        for (std::size_t p = 0; p < N; ++p)
            if (std::isfinite(delta[p])) ++finiteD;
        NumericFaultContext ctx;
        ctx.where = "online.reweight";
        ctx.value = logZInc;
        ctx.theta = theta;
        ctx.seed = state_.seed;
        ctx.tick = state_.updates;
        ctx.genealogy = genealogySummary(state_.particles[0].tree);
        ctx.detail = "add-sequence update: " + std::to_string(state_.updates) +
                     "\nnew sequence: " + seq.name() +
                     "\nparticles: " + std::to_string(N) +
                     "\nfinite importance increments: " + std::to_string(finiteD) +
                     "\nhint: a particle produced a non-finite reweight — check "
                     "the new sequence's alignment against the model";
        raiseNumericFault(ctx);
    }
    for (std::size_t p = 0; p < N; ++p) {
        state_.particles[p].tree = std::move(newTrees[p]);
        state_.particles[p].logL = newLogL[p];
        state_.particles[p].logW = logW[p] - logZInc;
    }
    state_.alignment = newAln;
    state_.logZ += logZInc;
    ++state_.updates;
    // Serial commit point — deterministic metric counts, no RNG touched.
    obs::add(obs::Counter::SmcOnlineUpdates);
    obs::add(obs::Counter::SmcOnlineScoredTrees, G);
    obs::set(obs::Gauge::SmcOnlineLogZIncrement, logZInc);
    obs::set(obs::Gauge::SmcLogZ, state_.logZ);

    OnlineUpdateResult res;
    res.logZIncrement = logZInc;

    // --- Phase 4: ESS refresh. Threshold 1.0 refreshes unconditionally
    // (the same boundary contract as the batch filter), 0.0 never does.
    std::vector<double> probs;
    for (std::size_t p = 0; p < N; ++p) logW[p] = state_.particles[p].logW;
    logNormalize(logW, probs);
    const double ess = weightEss(probs);
    res.essFraction = ess / static_cast<double>(N);
    const bool refresh = opts_.essThreshold >= 1.0 ||
                         ess < opts_.essThreshold * static_cast<double>(N);
    obs::set(obs::Gauge::SmcEssFraction, res.essFraction);
    if (refresh) {
        res.refreshed = true;
        obs::add(obs::Counter::SmcOnlineRefreshes);
        std::vector<std::uint32_t> ancestry;
        resampleAncestors(opts_.scheme, probs, state_.hostRng, ancestry);
        std::vector<OnlineParticle> next(N);
        for (std::size_t i = 0; i < N; ++i) next[i] = state_.particles[ancestry[i]];
        state_.particles = std::move(next);
        const double uniform = -std::log(static_cast<double>(N));
        for (std::size_t p = 0; p < N; ++p) state_.particles[p].logW = uniform;

        // Rejuvenation: recoalesce MH sweeps against the enlarged-data
        // posterior, slot streams again, so the refresh stays bitwise
        // thread-invariant.
        std::vector<std::size_t> accepts(N, 0);
        for (std::size_t sweep = 0; sweep < opts_.rejuvenationSweeps; ++sweep) {
            launchBlocked(pool_, N, opts_.blockSize, [&](std::size_t, std::size_t begin,
                                                         std::size_t end) {
                for (std::size_t p = begin; p < end; ++p) {
                    OnlineParticle& pt = state_.particles[p];
                    Mt19937& rng = state_.slotRngs[p];
                    RecoalesceProposal prop = proposeRecoalesce(pt.tree, theta, rng);
                    const double propLogL = lik.logLikelihood(prop.state, nullptr);
                    const double logAccept =
                        propLogL + logCoalescentPrior(prop.state, theta) - pt.logL -
                        logCoalescentPrior(pt.tree, theta) + prop.logReverse -
                        prop.logForward;
                    if (std::log(rng.uniformPos()) < logAccept) {
                        pt.tree = std::move(prop.state);
                        pt.logL = propLogL;
                        ++accepts[p];
                    }
                }
            });
        }
        for (std::size_t p = 0; p < N; ++p) res.rejuvenationAccepts += accepts[p];
        obs::add(obs::Counter::SmcRejuvenationAccepts, res.rejuvenationAccepts);
    }
    return res;
}

double onlineThetaEstimate(const OnlineState& state) {
    std::vector<double> logW(state.particles.size());
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        logW[p] = state.particles[p].logW;
    std::vector<double> probs;
    logNormalize(logW, probs);
    double est = 0.0;
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        est += probs[p] * singleTreeThetaMle(state.particles[p].tree.intervals());
    return est;
}

double onlineEssFraction(const OnlineState& state) {
    std::vector<double> logW(state.particles.size());
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        logW[p] = state.particles[p].logW;
    return essFromLogWeights(logW) / static_cast<double>(state.particles.size());
}

void saveOnlineState(const std::string& path, const OnlineState& state) {
    CheckpointWriter w(path);
    w.beginSection("online.meta");
    w.str(state.substModel);
    w.f64(state.theta);
    w.u64(state.seed);
    w.u64(state.updates);
    w.f64(state.logZ);
    w.beginSection("online.alignment");
    w.u32(static_cast<std::uint32_t>(state.alignment.sequenceCount()));
    for (const Sequence& s : state.alignment.sequences()) {
        w.str(s.name());
        w.str(s.toString());
    }
    w.beginSection("online.rng");
    writeRng(w, state.hostRng);
    w.u32(static_cast<std::uint32_t>(state.slotRngs.size()));
    for (const Mt19937& r : state.slotRngs) writeRng(w, r);
    w.beginSection("online.particles");
    w.u32(static_cast<std::uint32_t>(state.particles.size()));
    for (const OnlineParticle& p : state.particles) {
        writeGenealogy(w, p.tree);
        w.f64(p.logW);
        w.f64(p.logL);
    }
    w.commit();
}

OnlineState loadOnlineState(const std::string& path) {
    try {
        CheckpointReader r(path);
        OnlineState st;
        r.enterSection("online.meta");
        st.substModel = r.str();
        st.theta = r.f64();
        st.seed = r.u64();
        st.updates = r.u64();
        st.logZ = r.f64();
        r.enterSection("online.alignment");
        const std::uint32_t nSeq = r.u32();
        std::vector<Sequence> seqs;
        seqs.reserve(nSeq);
        for (std::uint32_t i = 0; i < nSeq; ++i) {
            std::string name = r.str();
            const std::string chars = r.str();
            seqs.push_back(Sequence::fromString(std::move(name), chars));
        }
        st.alignment = Alignment(std::move(seqs));
        r.enterSection("online.rng");
        readRng(r, st.hostRng);
        const std::uint32_t nRng = r.u32();
        st.slotRngs.resize(nRng);
        for (std::uint32_t i = 0; i < nRng; ++i) readRng(r, st.slotRngs[i]);
        r.enterSection("online.particles");
        const std::uint32_t nPart = r.u32();
        st.particles.resize(nPart);
        for (std::uint32_t i = 0; i < nPart; ++i) {
            st.particles[i].tree = readGenealogy(r);
            st.particles[i].logW = r.f64();
            st.particles[i].logL = r.f64();
        }
        return st;
    } catch (const ResumeError&) {
        throw;
    } catch (const CheckpointError& e) {
        throw ResumeError(e.what());
    } catch (const ParseError& e) {
        throw ResumeError(std::string("checkpoint error: online state: ") + e.what());
    }
}

double onlineAttachmentLogLik(const DataLikelihood& lik, const Genealogy& tree,
                              NodeId attach, double height) {
    const SitePatterns& patterns = lik.patterns();
    const RateCategories& rates = lik.rateCategories();
    const std::size_t P = patterns.patternCount();
    const std::size_t C = rates.count();
    const std::size_t vlen = C * P * 4;
    if (static_cast<std::size_t>(tree.tipCount()) + 1 != patterns.sequenceCount())
        throw ConfigError(
            "online: attachment evaluator needs exactly one more alignment "
            "sequence than the tree has tips");

    // CPU lower partials through the shared forest kernels (the same math
    // the backend slots hold in the add-sequence path).
    const std::size_t nodes = static_cast<std::size_t>(tree.nodeCount());
    std::vector<double> data(nodes * vlen, 0.0);
    std::vector<double> scale(nodes * P, 0.0);
    for (int t = 0; t < tree.tipCount(); ++t)
        forestTipInitRange(patterns, t, data.data() + static_cast<std::size_t>(t) * vlen,
                           scale.data() + static_cast<std::size_t>(t) * P, P, C, 0, P);
    for (NodeId v : tree.postorder()) {
        if (tree.isTip(v)) continue;
        const NodeId a = tree.node(v).child[0];
        const NodeId b = tree.node(v).child[1];
        const double la = tree.node(v).time - tree.node(a).time;
        const double lb = tree.node(v).time - tree.node(b).time;
        double* out = data.data() + static_cast<std::size_t>(v) * vlen;
        for (std::size_t c = 0; c < C; ++c) {
            const Matrix4 pa = lik.model().transition(rates.rates[c] * la);
            const Matrix4 pb = lik.model().transition(rates.rates[c] * lb);
            forestCombineRange(pa, pb,
                               data.data() + static_cast<std::size_t>(a) * vlen + c * P * 4,
                               data.data() + static_cast<std::size_t>(b) * vlen + c * P * 4,
                               out + c * P * 4, 0, P);
        }
        forestRescaleRange(out, scale.data() + static_cast<std::size_t>(v) * P,
                           scale.data() + static_cast<std::size_t>(a) * P,
                           scale.data() + static_cast<std::size_t>(b) * P, P, C, 0, P);
    }
    std::vector<double> tipData(vlen, 0.0);
    std::vector<double> tipScale(P, 0.0);
    forestTipInitRange(patterns, tree.tipCount(), tipData.data(), tipScale.data(), P, C,
                       0, P);

    TripodScorer scorer(patterns, lik.model(), lik.rootFreqs(), rates, tree);
    for (NodeId v = 0; v < tree.nodeCount(); ++v)
        scorer.setLower(v, data.data() + static_cast<std::size_t>(v) * vlen,
                        scale.data() + static_cast<std::size_t>(v) * P);
    scorer.setNewTip(tipData.data());
    scorer.buildOuter();
    return scorer.logLikAt(attach, height);
}

}  // namespace mpcgs
