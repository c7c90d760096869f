#include "core/em_run.h"

#include "seq/dataset.h"
#include "util/error.h"

namespace mpcgs {

Fingerprint& Fingerprint::roster(const Dataset& ds) {
    u64(ds.locusCount());
    for (const Locus& locus : ds.loci())
        str(locus.name)
            .u64(locus.alignment.sequenceCount())
            .u64(locus.alignment.length())
            .f64(locus.mutationScale);
    return *this;
}

void writeSnapshot(const std::string& path, const RunSupervisor* supervisor,
                   const FingerprintFn& fingerprint,
                   const std::function<void(CheckpointWriter&)>& body) {
    withCheckpointRetry(supervisor, [&] {
        CheckpointWriter w(path);
        w.beginSection("fingerprint");
        Fingerprint f(w);
        fingerprint(f);
        body(w);
        w.commit();
    });
}

std::unique_ptr<CheckpointReader> openSnapshot(const std::string& path,
                                               const FingerprintFn& fingerprint,
                                               const std::string& label) {
    auto r = std::make_unique<CheckpointReader>(pickResumeSnapshot(path));
    r->enterSection("fingerprint");
    Fingerprint f(*r);
    fingerprint(f);
    if (!f.matches())
        throw ConfigError("resume: " + label +
                          " checkpoint was written by an incompatible run configuration");
    return r;
}

std::size_t EmRun::resume() {
    if (!control_.resume) return 0;
    asResumeError([&] {
        pending_ = openSnapshot(control_.checkpointPath, owner_.fingerprint, label_);
        pending_->enterSection("context");
        if (layout_ != Layout::OnePhase) emStart_ = pending_->u64();
        owner_.readContext(*pending_);
        // One-phase snapshots are always mid-phase; EM snapshots say which.
        if (layout_ != Layout::OnePhase && pending_->u32() != 1) pending_.reset();
    });
    if (emStart_ >= emIterations_)
        throw ConfigError("resume: checkpoint already covers all requested EM iterations");
    return emStart_;
}

void EmRun::checkStop(std::size_t em) const {
    if (control_.supervisor && control_.supervisor->stopRequested())
        throw InterruptedError(
            "stop requested at EM iteration boundary (" + std::to_string(em) + ")",
            !control_.checkpointPath.empty() && em > emStart_);
}

MultiLocusReport EmRun::sample(std::size_t em, std::vector<LocusSlot> slots,
                               std::size_t burnTicks, std::size_t sampleTicks, double theta,
                               std::uint64_t seed) {
    MultiLocusRun::Config cfg;
    cfg.burnInTicks = burnTicks;
    cfg.sampleTicks = sampleTicks;
    cfg.stopping = {control_.stopRhat, control_.stopEss};
    cfg.checkpointInterval = control_.checkpointIntervalTicks;
    cfg.pool = pool_;
    if (control_.supervisor) cfg.stopRequested = control_.supervisor->stopCallback();
    cfg.numeric = {true, theta, seed,
                   layout_ == Layout::OnePhase
                       ? label_ + " sampling"
                       : label_ + " E-step (EM iteration " + std::to_string(em) + ")"};
    if (!control_.checkpointPath.empty()) {
        cfg.checkpoint = [this, em, &slots](std::size_t burnDone,
                                            std::span<const std::uint64_t> sampleDone,
                                            std::span<const std::uint8_t> stopped) {
            write(em, &slots, burnDone, sampleDone, stopped);
        };
    }

    MultiLocusRun run(slots, std::move(cfg));
    if (pending_) {
        asResumeError([&] {
            CheckpointReader& r = *pending_;
            const std::size_t burnDone = r.u64();
            std::vector<std::uint64_t> sampleDone(slots.size());
            std::vector<std::uint8_t> stopped(slots.size());
            for (std::size_t l = 0; l < slots.size(); ++l) {
                sampleDone[l] = r.u64();
                stopped[l] = r.u32() != 0 ? 1 : 0;
            }
            // Pre-v5 files have no section frames (enterSection is a no-op),
            // so v1's sampler, sink, monitor order reads as L = 1 here.
            eachSection(slots, [&](const std::string& name, Sampler* sampler, SampleSink* sink) {
                r.enterSection(name);
                sampler ? sampler->load(r) : sink->load(r);
            });
            run.restoreProgress(burnDone, sampleDone, stopped);
        });
        pending_.reset();
    }
    return run.execute();
}

void EmRun::boundary(std::size_t em) const {
    if (!control_.checkpointPath.empty() && em + 1 < emIterations_)
        write(em + 1, nullptr, 0, {}, {});
}

void EmRun::write(std::size_t em, const std::vector<LocusSlot>* slots, std::size_t burnDone,
                  std::span<const std::uint64_t> sampleDone,
                  std::span<const std::uint8_t> stopped) const {
    const RunControl& c = control_;
    writeSnapshot(c.checkpointPath, c.supervisor, owner_.fingerprint, [&](CheckpointWriter& w) {
        w.beginSection("context");
        if (layout_ != Layout::OnePhase) w.u64(em);
        owner_.writeContext(w);
        if (layout_ != Layout::OnePhase) w.u32(slots ? 1 : 0);  // 1 = mid-phase
        if (!slots) return;
        w.u64(burnDone);
        for (std::size_t l = 0; l < slots->size(); ++l) {
            w.u64(sampleDone[l]);
            w.u32(stopped[l] ? 1 : 0);
        }
        eachSection(*slots, [&](const std::string& name, Sampler* sampler, SampleSink* sink) {
            w.beginSection(name);
            sampler ? sampler->save(w) : sink->save(w);
        });
    });
}

void EmRun::eachSection(
    const std::vector<LocusSlot>& slots,
    const std::function<void(const std::string&, Sampler*, SampleSink*)>& f) const {
    const auto name = [&](const char* kind, std::size_t l) {
        return layout_ == Layout::PerLocus ? kind + ("." + std::to_string(l)) : std::string(kind);
    };
    for (std::size_t l = 0; l < slots.size(); ++l) f(name("sampler", l), slots[l].sampler, nullptr);
    if (layout_ != Layout::OnePhase)
        for (std::size_t l = 0; l < slots.size(); ++l) f(name("sink", l), nullptr, slots[l].sink);
    for (std::size_t l = 0; l < slots.size(); ++l) f(name("monitor", l), nullptr, slots[l].monitor);
}

}  // namespace mpcgs
