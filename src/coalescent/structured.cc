#include "coalescent/structured.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

MigrationModel::MigrationModel(int K, double th, double m) {
    theta.assign(static_cast<std::size_t>(K), th);
    mig.assign(static_cast<std::size_t>(K) * static_cast<std::size_t>(K), 0.0);
    for (int k = 0; k < K; ++k)
        for (int l = 0; l < K; ++l)
            if (k != l) setRate(k, l, m);
}

double MigrationModel::totalRateFrom(int k) const {
    double total = 0.0;
    for (int l = 0; l < demeCount(); ++l)
        if (l != k) total += rate(k, l);
    return total;
}

void MigrationModel::validate() const {
    const int K = demeCount();
    if (K < 1) throw ConfigError("MigrationModel: need at least one deme");
    if (mig.size() != static_cast<std::size_t>(K) * static_cast<std::size_t>(K))
        throw ConfigError("MigrationModel: migration matrix must be K x K");
    for (int k = 0; k < K; ++k)
        if (!(theta[static_cast<std::size_t>(k)] > 0.0) ||
            !std::isfinite(theta[static_cast<std::size_t>(k)]))
            throw ConfigError("MigrationModel: theta_" + std::to_string(k) +
                              " must be positive and finite");
    for (int k = 0; k < K; ++k)
        for (int l = 0; l < K; ++l) {
            if (k == l) continue;
            const double m = rate(k, l);
            if (!(m > 0.0) || !std::isfinite(m))
                throw ConfigError("MigrationModel: migration rate " + std::to_string(k) +
                                  "->" + std::to_string(l) + " must be positive and finite");
        }
}

StructuredGenealogy::StructuredGenealogy(Genealogy tree) : tree_(std::move(tree)) {
    nodeDeme_.assign(static_cast<std::size_t>(tree_.nodeCount()), 0);
    branchEvents_.assign(static_cast<std::size_t>(tree_.nodeCount()), {});
}

std::size_t StructuredGenealogy::migrationCount() const {
    std::size_t n = 0;
    for (const auto& events : branchEvents_) n += events.size();
    return n;
}

bool StructuredGenealogy::consistent(int K) const {
    if (nodeDeme_.size() != static_cast<std::size_t>(tree_.nodeCount()) ||
        branchEvents_.size() != static_cast<std::size_t>(tree_.nodeCount()))
        return false;
    for (NodeId id = 0; id < tree_.nodeCount(); ++id) {
        const int d0 = deme(id);
        if (d0 < 0 || d0 >= K) return false;
        const NodeId parent = tree_.node(id).parent;
        const auto& events = branchEvents(id);
        if (parent == kNoNode) {
            // The root has no branch; events above the root are not modeled.
            if (!events.empty()) return false;
            continue;
        }
        const double lo = tree_.node(id).time;
        const double hi = tree_.node(parent).time;
        int d = d0;
        double last = lo;
        for (const MigrationEvent& e : events) {
            if (!(e.time > last) || !(e.time < hi)) return false;
            if (e.toDeme < 0 || e.toDeme >= K || e.toDeme == d) return false;
            d = e.toDeme;
            last = e.time;
        }
        if (d != deme(parent)) return false;
    }
    return true;
}

void StructuredGenealogy::validate(int K) const {
    tree_.validate();
    require(consistent(K), "structured genealogy: inconsistent deme labelling");
}

StructuredSummary StructuredSummary::fromGenealogy(const StructuredGenealogy& g, int K) {
    StructuredSummary s;
    const auto Ku = static_cast<std::size_t>(K);
    s.coal.assign(Ku, 0.0);
    s.W.assign(Ku, 0.0);
    s.mig.assign(Ku * Ku, 0.0);
    s.U.assign(Ku, 0.0);

    const Genealogy& tree = g.tree();

    // Timeline events: coalescences (internal node times) and migrations,
    // swept from the present. Ties are broken (node id, then event order)
    // only for determinism; in continuous time they have measure zero.
    struct Event {
        double time;
        bool isCoal;
        int a;  ///< coalescence: deme; migration: from deme
        int b;  ///< migration: to deme
        NodeId node;
    };
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(tree.nodeCount()) + g.migrationCount());
    for (NodeId id = 0; id < tree.nodeCount(); ++id) {
        if (!tree.isTip(id))
            events.push_back({tree.node(id).time, true, g.deme(id), 0, id});
        if (tree.node(id).parent == kNoNode) continue;
        int d = g.deme(id);
        for (const MigrationEvent& e : g.branchEvents(id)) {
            events.push_back({e.time, false, d, e.toDeme, id});
            d = e.toDeme;
        }
    }
    std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
        if (x.time != y.time) return x.time < y.time;
        if (x.isCoal != y.isCoal) return !x.isCoal;  // migrations first at ties
        return x.node < y.node;
    });

    // Lineage counts per deme, starting from the tips.
    std::vector<double> n(Ku, 0.0);
    for (NodeId tip = 0; tip < tree.tipCount(); ++tip)
        n[static_cast<std::size_t>(g.deme(tip))] += 1.0;

    double t = 0.0;
    for (const Event& e : events) {
        const double dt = e.time - t;
        for (std::size_t k = 0; k < Ku; ++k) {
            s.W[k] += n[k] * (n[k] - 1.0) * dt;
            s.U[k] += n[k] * dt;
        }
        t = e.time;
        if (e.isCoal) {
            s.coal[static_cast<std::size_t>(e.a)] += 1.0;
            n[static_cast<std::size_t>(e.a)] -= 1.0;
        } else {
            s.mig[static_cast<std::size_t>(e.a) * Ku + static_cast<std::size_t>(e.b)] += 1.0;
            n[static_cast<std::size_t>(e.a)] -= 1.0;
            n[static_cast<std::size_t>(e.b)] += 1.0;
        }
    }
    return s;
}

double logStructuredPrior(const StructuredSummary& s, const MigrationModel& model) {
    const int K = model.demeCount();
    require(s.demeCount() == K, "logStructuredPrior: summary/model deme count mismatch");
    double logP = 0.0;
    for (int k = 0; k < K; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        const double th = model.theta[ku];
        logP += s.coal[ku] * std::log(2.0 / th) - s.W[ku] / th;
        for (int l = 0; l < K; ++l) {
            if (l == k) continue;
            const double m = model.rate(k, l);
            const double count = s.mig[ku * static_cast<std::size_t>(K) +
                                       static_cast<std::size_t>(l)];
            if (count > 0.0) {
                if (!(m > 0.0)) return -kInf;
                logP += count * std::log(m);
            }
            logP -= s.U[ku] * m;
        }
    }
    return logP;
}

double logStructuredPrior(const StructuredGenealogy& g, const MigrationModel& model) {
    if (!g.consistent(model.demeCount())) return -kInf;
    return logStructuredPrior(StructuredSummary::fromGenealogy(g, model.demeCount()), model);
}

StructuredGenealogy simulateStructuredCoalescent(const std::vector<int>& tipDemes,
                                                 const MigrationModel& model, Rng& rng) {
    model.validate();
    const int K = model.demeCount();
    const int nTips = static_cast<int>(tipDemes.size());
    if (nTips < 2) throw ConfigError("simulateStructuredCoalescent: need at least 2 tips");
    for (const int d : tipDemes)
        if (d < 0 || d >= K)
            throw ConfigError("simulateStructuredCoalescent: tip deme out of range");

    StructuredGenealogy g{Genealogy(nTips)};
    struct Lineage {
        NodeId node;
        int deme;
    };
    std::vector<Lineage> active;
    active.reserve(static_cast<std::size_t>(nTips));
    for (NodeId i = 0; i < nTips; ++i) {
        g.setDeme(i, tipDemes[static_cast<std::size_t>(i)]);
        active.push_back({i, tipDemes[static_cast<std::size_t>(i)]});
    }

    // Gillespie over the competing clocks: per-deme total coalescence rate
    // n_k (n_k - 1) / theta_k, per-pair migration channel rate n_k M_kl.
    // Weights are laid out [coal_0..coal_{K-1}, mig_{0,1}, mig_{0,2}, ...]
    // so one categorical draw picks the event type deterministically.
    std::vector<double> n(static_cast<std::size_t>(K), 0.0);
    std::vector<double> weights;
    double t = 0.0;
    NodeId nextInternal = nTips;
    while (active.size() > 1) {
        for (auto& c : n) c = 0.0;
        for (const Lineage& a : active) n[static_cast<std::size_t>(a.deme)] += 1.0;

        weights.clear();
        double total = 0.0;
        for (int k = 0; k < K; ++k) {
            const auto ku = static_cast<std::size_t>(k);
            const double w = n[ku] * (n[ku] - 1.0) / model.theta[ku];
            weights.push_back(w);
            total += w;
        }
        for (int k = 0; k < K; ++k)
            for (int l = 0; l < K; ++l) {
                if (l == k) continue;
                const double w = n[static_cast<std::size_t>(k)] * model.rate(k, l);
                weights.push_back(w);
                total += w;
            }
        require(total > 0.0, "simulateStructuredCoalescent: zero total rate");

        t += rng.exponential(total);
        std::size_t pick = rng.categorical(weights);

        if (pick < static_cast<std::size_t>(K)) {
            // Coalescence in deme `pick`: uniform pair among that deme's
            // lineages (active order is deterministic).
            const int d = static_cast<int>(pick);
            std::vector<std::size_t> inDeme;
            for (std::size_t i = 0; i < active.size(); ++i)
                if (active[i].deme == d) inDeme.push_back(i);
            const std::size_t ii = static_cast<std::size_t>(rng.below(inDeme.size()));
            std::size_t jj = static_cast<std::size_t>(rng.below(inDeme.size() - 1));
            if (jj >= ii) ++jj;
            const std::size_t lo = std::min(inDeme[ii], inDeme[jj]);
            const std::size_t hi = std::max(inDeme[ii], inDeme[jj]);

            const NodeId parent = nextInternal++;
            g.tree().node(parent).time = t;
            g.setDeme(parent, d);
            g.tree().link(parent, active[lo].node);
            g.tree().link(parent, active[hi].node);
            active[lo] = {parent, d};
            active[hi] = active.back();
            active.pop_back();
        } else {
            // Migration on channel (k -> l): uniform lineage within deme k.
            std::size_t channel = pick - static_cast<std::size_t>(K);
            int from = 0, to = 0, seen = 0;
            for (int k = 0; k < K && seen <= static_cast<int>(channel); ++k)
                for (int l = 0; l < K; ++l) {
                    if (l == k) continue;
                    if (static_cast<std::size_t>(seen) == channel) {
                        from = k;
                        to = l;
                    }
                    ++seen;
                }
            std::vector<std::size_t> inDeme;
            for (std::size_t i = 0; i < active.size(); ++i)
                if (active[i].deme == from) inDeme.push_back(i);
            const std::size_t i = inDeme[static_cast<std::size_t>(rng.below(inDeme.size()))];
            g.branchEvents(active[i].node).push_back({t, to});
            active[i].deme = to;
        }
    }

    g.tree().setRoot(active[0].node);
    g.validate(K);
    return g;
}

double twoDemeTransitionProb(const MigrationModel& model, int from, int to, double T) {
    require(model.demeCount() == 2, "twoDemeTransitionProb: needs exactly 2 demes");
    const double a = model.rate(0, 1);
    const double b = model.rate(1, 0);
    const double s = a + b;
    const double decay = std::exp(-s * T);
    // Stationary distribution (b, a) / (a + b); standard 2-state CTMC.
    const double p0stay = (b + a * decay) / s;   // 0 -> 0
    const double p1stay = (a + b * decay) / s;   // 1 -> 1
    if (from == 0) return to == 0 ? p0stay : 1.0 - p0stay;
    return to == 1 ? p1stay : 1.0 - p1stay;
}

}  // namespace mpcgs
