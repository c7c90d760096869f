#include "mcmc/sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "coalescent/structured.h"
#include "core/numeric_guard.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/stats.h"

namespace mpcgs {
namespace {

/// Serial-section guardrail: checks the newest log-posterior of every
/// chain in `monitor` after a tick (`tick` is the locus's absolute
/// sampling tick, so dumps agree across a resume). The
/// mcmc.logpost fail point (evaluated once per call — deterministic tick
/// counting) can poison chain 0's value or throw directly.
void guardTickLogPosts(const SamplerNumericGuard& guard, const Sampler& sampler,
                       const ConvergenceMonitor& monitor, std::uint64_t tick,
                       std::uint32_t locus) {
    if (!guard.enabled) return;
    const auto hit = MPCGS_FAILPOINT("mcmc.logpost");
    if (hit.fired() && hit.action != failpoint::Action::Nan)
        throw InjectedFaultError("mcmc.logpost");
    for (std::uint32_t c = 0; c < monitor.chainCount(); ++c) {
        const auto& trace = monitor.trace(c);
        if (trace.empty()) continue;
        double v = trace.back();
        if (c == 0 && hit.action == failpoint::Action::Nan)
            v = std::numeric_limits<double>::quiet_NaN();
        if (std::isfinite(v)) continue;
        NumericFaultContext ctx;
        ctx.where = "mcmc.logpost";
        ctx.value = v;
        ctx.theta = guard.theta;
        ctx.seed = guard.seed;
        ctx.tick = tick;
        ctx.chain = c;
        ctx.genealogy = genealogySummary(sampler.continuation());
        ctx.detail = "phase: " + guard.phase + "\nlocus: " + std::to_string(locus);
        raiseNumericFault(ctx);
    }
}

}  // namespace

void SampleSink::consume(const StructuredGenealogy& g, const SampleTag& tag) {
    consume(g.tree(), tag);
}

void ConvergenceMonitor::beginRun(std::uint32_t chains) {
    if (chains > traces_.size()) traces_.resize(chains);
}

void ConvergenceMonitor::consume(const Genealogy&, const SampleTag& tag) {
    traces_[tag.chain].push_back(tag.logPosterior);
}

std::size_t ConvergenceMonitor::minChainLength() const {
    std::size_t n = std::numeric_limits<std::size_t>::max();
    for (const auto& t : traces_) n = std::min(n, t.size());
    return traces_.empty() ? 0 : n;
}

std::size_t ConvergenceMonitor::totalSamples() const {
    std::size_t n = 0;
    for (const auto& t : traces_) n += t.size();
    return n;
}

double ConvergenceMonitor::rhat() const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (traces_.empty()) return kInf;
    if (traces_.size() == 1) {
        // Split-R-hat: compare the two halves of the (windowed) chain.
        const auto& t = traces_.front();
        const std::size_t n = std::min(t.size(), kDiagnosticWindow);
        const std::size_t half = n / 2;
        if (half < 2) return kInf;
        const auto tail = t.end() - static_cast<std::ptrdiff_t>(n);
        return gelmanRubin({std::vector<double>(tail, tail + static_cast<std::ptrdiff_t>(half)),
                            std::vector<double>(t.end() - static_cast<std::ptrdiff_t>(half),
                                                t.end())});
    }
    const std::size_t n = std::min(minChainLength(), kDiagnosticWindow);
    if (n < 2) return kInf;
    std::vector<std::vector<double>> windows;
    windows.reserve(traces_.size());
    for (const auto& t : traces_)
        windows.emplace_back(t.end() - static_cast<std::ptrdiff_t>(n), t.end());
    return gelmanRubin(windows);
}

double ConvergenceMonitor::pooledEss() const {
    double ess = 0.0;
    for (const auto& t : traces_) {
        if (t.size() < 2) continue;
        const std::size_t n = std::min(t.size(), kDiagnosticWindow);
        const std::span<const double> window(t.data() + (t.size() - n), n);
        const double windowEss = effectiveSampleSize(window);
        // tau estimated on the window, ESS = n_total / tau.
        ess += windowEss * (static_cast<double>(t.size()) / static_cast<double>(n));
    }
    return ess;
}

void ConvergenceMonitor::save(CheckpointWriter& w) const {
    w.u64(traces_.size());
    for (const auto& t : traces_) w.doubles(t);
}

void ConvergenceMonitor::load(CheckpointReader& r) {
    const std::uint64_t chains = r.u64();
    if (chains > r.remaining() / sizeof(std::uint64_t))  // every trace carries a length word
        throw CheckpointError("corrupt snapshot: implausible chain count");
    traces_.assign(chains, {});
    for (auto& t : traces_) t = r.doubles();
}

bool StoppingRule::satisfied(const ConvergenceMonitor& m, double* rhatOut,
                             double* essOut) const {
    if (!enabled()) return false;
    if (m.minChainLength() < minSamplesPerChain) return false;
    // Evaluate both diagnostics up front (when needed for a criterion or a
    // report slot), so callers always see the full picture even when the
    // first criterion already fails.
    double r = 0.0;
    double e = 0.0;
    if (rhatBelow > 0.0 || rhatOut) {
        r = m.rhat();
        if (rhatOut) *rhatOut = r;
    }
    if (essAtLeast > 0.0 || essOut) {
        e = m.pooledEss();
        if (essOut) *essOut = e;
    }
    if (rhatBelow > 0.0 && !(r < rhatBelow)) return false;
    if (essAtLeast > 0.0 && !(e >= essAtLeast)) return false;
    return true;
}

std::size_t MultiLocusReport::totalSamples() const {
    std::size_t n = 0;
    for (const LocusRunReport& r : loci) n += r.samples;
    return n;
}

bool MultiLocusReport::allStoppedEarly() const {
    for (const LocusRunReport& r : loci)
        if (!r.stoppedEarly) return false;
    return !loci.empty();
}

MultiLocusRun::MultiLocusRun(std::vector<LocusSlot> slots, Config cfg)
    : slots_(std::move(slots)), cfg_(std::move(cfg)) {
    require(!slots_.empty(), "MultiLocusRun: no loci");
    for (const LocusSlot& s : slots_)
        require(s.sampler && s.sink && s.monitor,
                "MultiLocusRun: every slot needs a sampler, sink and monitor");
    sampleDone_.assign(slots_.size(), 0);
    stopped_.assign(slots_.size(), 0);
}

void MultiLocusRun::restoreProgress(std::size_t burnTicksDone,
                                    std::span<const std::uint64_t> sampleTicksDone,
                                    std::span<const std::uint8_t> stopped) {
    require(sampleTicksDone.size() == slots_.size() && stopped.size() == slots_.size(),
            "MultiLocusRun: restored progress has the wrong locus count");
    burnDone_ = std::min(burnTicksDone, cfg_.burnInTicks);
    for (std::size_t l = 0; l < slots_.size(); ++l) {
        sampleDone_[l] = std::min<std::uint64_t>(sampleTicksDone[l], cfg_.sampleTicks);
        stopped_[l] = stopped[l] ? 1 : 0;
    }
}

MultiLocusReport MultiLocusRun::execute() {
    const std::size_t L = slots_.size();

    // Per-locus sink pipelines: the slot's sink plus its convergence monitor.
    std::vector<FanoutSink> fanouts(L);
    for (std::size_t l = 0; l < L; ++l) {
        fanouts[l].add(slots_[l].sink);
        fanouts[l].add(slots_[l].monitor);
        fanouts[l].beginRun(slots_[l].sampler->chainCount());
    }

    // Cadences count rounds; a round advances every active locus by one
    // tick, so for L = 1 rounds and ticks coincide.
    const std::size_t ckptEvery =
        cfg_.checkpointInterval > 0
            ? cfg_.checkpointInterval
            : std::max<std::size_t>(1, (cfg_.burnInTicks + cfg_.sampleTicks) / 16);
    const std::size_t checkEvery =
        cfg_.stopping.checkInterval > 0
            ? cfg_.stopping.checkInterval
            : std::max<std::size_t>(1, cfg_.sampleTicks / 64);

    std::size_t sinceCkpt = 0;
    const auto maybeCheckpoint = [&](bool force) {
        if (!cfg_.checkpoint) return;
        if (!force && ++sinceCkpt < ckptEvery) return;
        sinceCkpt = 0;
        cfg_.checkpoint(burnDone_, sampleDone_, stopped_);
    };
    // Cooperative stop: polled at every round boundary, in the serial
    // section between parallel rounds, so an interrupt always lands on a
    // consistent state; the forced final checkpoint makes `--resume`
    // continue bitwise-identically.
    const auto checkStop = [&](const char* where) {
        if (!cfg_.stopRequested || !cfg_.stopRequested()) return;
        maybeCheckpoint(true);
        throw InterruptedError(std::string("stop requested during ") + where +
                                   " — progress checkpointed at the round boundary",
                               static_cast<bool>(cfg_.checkpoint));
    };
    const auto guardRound = [&] {
        for (std::size_t l = 0; l < L; ++l)
            guardTickLogPosts(cfg_.numeric, *slots_[l].sampler, *slots_[l].monitor,
                              sampleDone_[l], static_cast<std::uint32_t>(l));
    };

    // The loci axis: one indivisible unit of pool work per locus and round.
    // With a single slot the sampler may own the pool internally, so the
    // round must run on the calling thread (pool sections don't nest).
    const auto forEachLocus = [&](auto&& f) {
        if (L == 1)
            f(std::size_t{0});
        else
            forEachIndex(cfg_.pool, L, f, /*grain=*/1);
    };

    while (burnDone_ < cfg_.burnInTicks) {
        checkStop("burn-in");
        forEachLocus([&](std::size_t l) { slots_[l].sampler->tick(nullptr); });
        ++burnDone_;
        maybeCheckpoint(burnDone_ == cfg_.burnInTicks);
    }

    MultiLocusReport report;
    report.loci.resize(L);
    for (std::size_t l = 0; l < L; ++l) {
        if (!stopped_[l]) continue;
        // Resumed from a snapshot taken after this locus's rule fired:
        // re-derive its diagnostics from the restored monitor.
        report.loci[l].stoppedEarly = true;
        cfg_.stopping.satisfied(*slots_[l].monitor, &report.loci[l].rhat,
                                &report.loci[l].ess);
    }

    const auto locusActive = [&](std::size_t l) {
        return !stopped_[l] && sampleDone_[l] < cfg_.sampleTicks;
    };
    const auto anyActive = [&] {
        for (std::size_t l = 0; l < L; ++l)
            if (locusActive(l)) return true;
        return false;
    };

    while (anyActive()) {
        checkStop("sampling");
        forEachLocus([&](std::size_t l) {
            if (!locusActive(l)) return;
            slots_[l].sampler->tick(&fanouts[l]);
            ++sampleDone_[l];
        });
        guardRound();
        // Serialized barrier section: per-locus stopping checks at each
        // locus's own cadence. A locus that satisfies its rule latches
        // stopped and freezes; the others keep sampling.
        bool latched = false;
        if (cfg_.stopping.enabled()) {
            for (std::size_t l = 0; l < L; ++l) {
                if (stopped_[l] || sampleDone_[l] % checkEvery != 0) continue;
                if (cfg_.stopping.satisfied(*slots_[l].monitor, &report.loci[l].rhat,
                                            &report.loci[l].ess)) {
                    report.loci[l].stoppedEarly = true;
                    stopped_[l] = 1;
                    latched = true;
                }
            }
        }
        // A stopping rule that ends the phase skips the periodic snapshot:
        // the forced phase-end one below records the same state.
        if (latched && !anyActive()) break;
        maybeCheckpoint(false);
    }
    // Phase-end snapshot (forced), covering the final round and the case
    // where every locus was already complete on entry.
    maybeCheckpoint(true);
    // Capped loci report the diagnostics at the cap (not at the last
    // periodic check), which also keeps a run resumed from an at-cap
    // snapshot consistent with its uninterrupted counterpart.
    if (cfg_.stopping.enabled())
        for (std::size_t l = 0; l < L; ++l)
            if (!report.loci[l].stoppedEarly)
                cfg_.stopping.satisfied(*slots_[l].monitor, &report.loci[l].rhat,
                                        &report.loci[l].ess);

    for (std::size_t l = 0; l < L; ++l) {
        report.loci[l].samples = slots_[l].monitor->totalSamples();
        report.loci[l].ticks = sampleDone_[l];
    }
    return report;
}

}  // namespace mpcgs
