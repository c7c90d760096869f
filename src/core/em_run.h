// One resume/checkpoint/stop driver for every checkpointing estimator.
//
// The estimators (estimateTheta, estimateStructured, estimateThetaAndGrowth
// and the one-phase runPmmh) are EM loops: the E-step samples genealogies
// at a driving parameter value and the M-step maximises the relative
// likelihood of those samples. EmRun owns the plumbing around the E-step
// that does not depend on the model: opening the resume snapshot, the
// stop check at each EM boundary, the shared MultiLocusRun configuration
// (stopping rule, checkpoint cadence, stop callback, numeric guard), the
// mid-phase checkpoint writer, restoring slot state and progress on
// resume, and the snapshot at each EM boundary. Each estimator supplies
// its fingerprint, its context words (model, history, warm starts), the
// samplers and sinks of one iteration and its M-step:
//
//   EmRun run(opts, pool, EmRun::Layout::PerLocus, "estimateTheta",
//             opts.emIterations, {fingerprint, writeContext, readContext});
//   for (std::size_t em = run.resume(); em < opts.emIterations; ++em) {
//       run.checkStop(em);
//       ... one sampler, sink and monitor per locus ...
//       const MultiLocusReport report = run.sample(em, slots, ...);
//       ... M-step: advance the state writeContext serializes ...
//       run.boundary(em);
//   }
//
// runPmmh is the one-phase case: no EM index, history or boundary
// snapshot. EmRun runs per EM iteration and per snapshot, never per tick.
//
// --- snapshot layouts ------------------------------------------------
// Every snapshot opens with a "fingerprint" section: the run
// configuration a resume must match, written by the estimator's
// fingerprint function (the EM horizon and the PMMH sample cap are left
// out, so a resumed run may extend either). Then a "context" section;
// words in order, str/doubles carry their own u64 length:
//
// estimateTheta (core/driver.cc), Layout::PerLocus, format v2+:
//   context  u64 EM index | f64 driving theta | history | L warm-start
//            genealogies | u32 phase (0 = EM boundary, 1 = mid-phase) |
//            phase 1 only: u64 burnDone, then per locus u64 sampleDone,
//            u32 stopped
//   history  u64 count, then per record f64 thetaBefore, thetaAfter,
//            logLAtMax, seconds, moveRate | u64 samples | f64 rhat, ess |
//            u32 stoppedEarly
//   phase 1  sections sampler.0 .. sampler.<L-1>, sink.0 .. sink.<L-1>,
//            monitor.0 .. monitor.<L-1> (the suffix is kept at L = 1)
//   v1 files are the single-locus layout: the fingerprint ends in the
//   sequence count and length instead of the locus roster, and there are
//   no section frames (sampler, sink and monitor follow the context
//   words); they are read back as L = 1.
//
// estimateStructured (core/structured_estimator.cc), Layout::OneSlot, v3+:
//   context  u64 EM index | model (doubles theta_k, doubles M_kl) |
//            history | structured warm-start genealogy | u32 phase |
//            phase 1 only: u64 burnDone, u64 sampleDone, u32 stopped
//   history  as estimateTheta's, with model before, model after in place
//            of f64 thetaBefore, thetaAfter
//   phase 1  sections sampler, sink, monitor
//
// estimateThetaAndGrowth (core/growth_estimator.cc), Layout::PerLocus, v5+:
//   fingerprint  u32 tag "GRTH" (0x48545247), then the run configuration
//            and the locus roster
//   context  u64 EM index | f64 driving theta, growth | history | L
//            warm-start genealogies | u32 phase | phase 1 only: u64
//            burnDone, then per locus u64 sampleDone, u32 stopped
//   history  as estimateTheta's, with f64 theta, growth before, then
//            after, in place of f64 thetaBefore, thetaAfter
//   phase 1  sections sampler.<l> (the GMH sampler words), sink.<l>
//            (u64 chains, then per chain u64 samples, then per sample
//            doubles event times, most recent first), monitor.<l>
//
// runPmmh (core/smc_estimator.cc), Layout::OnePhase, v4+:
//   context  u64 planned burn-in ticks | u64 burnDone, u64 sampleDone,
//            u32 stopped
//   then     sections sampler, monitor (the genealogy stream is discarded)
//
// estimateThetaSmc (core/smc_estimator.cc), v5: no context section; a
//   "memo" section holds u64 count, then per evaluation f64 theta, logZ.
//
// The history records' `seconds` (the E-step wall time) is the only
// wall-clock field: two runs with the same seed and options write
// byte-identical snapshots apart from those words and the context
// section's CRC.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "mcmc/sampler.h"

namespace mpcgs {

class Dataset;

/// Seed of EM iteration `em`'s sampler streams in a run seeded with `seed`.
inline std::uint64_t emSeed(std::uint64_t seed, std::size_t em) {
    return seed + em * 0x632BE59BD9B4E019ull;
}

/// One EM iteration of an estimator whose driving value is a `Driving`:
/// the E-step's start `before`, the M-step's estimate `after`, and the
/// E-step's sampling report.
template <class Driving>
struct EmRecord {
    Driving before{};
    Driving after{};
    double logLAtMax = 0.0;     ///< log relative likelihood at the estimate
    double seconds = 0.0;       ///< wall time of the E-step (sampling)
    double moveRate = 0.0;      ///< sampler move / acceptance rate
    std::size_t samples = 0;    ///< samples summed over loci
    double rhat = 0.0;          ///< worst per-locus R-hat (0 = never checked)
    double ess = 0.0;           ///< smallest per-locus pooled ESS
    bool stoppedEarly = false;  ///< every locus's stopping rule fired before the cap
};

/// An E-step's sampling report in `rec`: samples summed over loci, the
/// worst R-hat, the smallest ESS, and whether every locus stopped early.
template <class Record>
void recordReport(Record& rec, const MultiLocusReport& report) {
    rec.samples = report.totalSamples();
    rec.stoppedEarly = report.allStoppedEarly();
    for (const LocusRunReport& lr : report.loci) {
        rec.rhat = std::max(rec.rhat, lr.rhat);
        rec.ess = rec.ess == 0.0 ? lr.ess : std::min(rec.ess, lr.ess);
    }
}

/// EM history in a snapshot context (every EM layout; see above), with
/// each record's driving values written and read by `driving`.
template <class Record, class Driving>
void writeHistory(CheckpointWriter& w, const std::vector<Record>& history, Driving driving) {
    w.u64(history.size());
    for (const Record& h : history) {
        driving(w, h);
        w.f64(h.logLAtMax);
        w.f64(h.seconds);
        w.f64(h.moveRate);
        w.u64(h.samples);
        w.f64(h.rhat);
        w.f64(h.ess);
        w.u32(h.stoppedEarly ? 1 : 0);
    }
}

template <class Record, class Driving>
std::vector<Record> readHistory(CheckpointReader& r, Driving driving) {
    std::vector<Record> history(r.u64());
    for (Record& h : history) {
        driving(r, h);
        h.logLAtMax = r.f64();
        h.seconds = r.f64();
        h.moveRate = r.f64();
        h.samples = r.u64();
        h.rhat = r.f64();
        h.ess = r.f64();
        h.stoppedEarly = r.u32() != 0;
    }
    return history;
}

/// A snapshot fingerprint, written and checked by the same sequence of
/// calls: on a writer each call writes its word; on a reader it compares
/// the stored word, and after the first mismatch reads nothing more.
class Fingerprint {
    using W = CheckpointWriter;
    using R = CheckpointReader;

  public:
    explicit Fingerprint(CheckpointWriter& w) : w_(&w) {}
    explicit Fingerprint(CheckpointReader& r) : r_(&r) {}

    /// Format version of the snapshot being checked; the current version
    /// when writing.
    std::uint32_t version() const { return r_ ? r_->version() : kCheckpointVersion; }
    bool matches() const { return ok_; }

    Fingerprint& u32(std::uint32_t v) { return word(v, &W::u32, &R::u32); }
    Fingerprint& u64(std::uint64_t v) { return word(v, &W::u64, &R::u64); }
    Fingerprint& f64(double v) { return word(v, &W::f64, &R::f64); }
    Fingerprint& str(const std::string& s) { return word(s, &W::str, &R::str); }
    Fingerprint& doubles(std::span<const double> xs) {
        return word(std::vector<double>(xs.begin(), xs.end()), &W::doubles, &R::doubles);
    }
    /// Locus roster: u64 count, then per locus str name, u64 sequences,
    /// u64 length, f64 mutation scale.
    Fingerprint& roster(const Dataset& ds);
    /// Fold a condition that involves no stored word into the check.
    Fingerprint& expect(bool cond) {
        ok_ = ok_ && cond;
        return *this;
    }

  private:
    template <class T, class Write, class Read>
    Fingerprint& word(const T& v, Write write, Read read) {
        if (w_)
            (w_->*write)(v);
        else if (ok_)
            ok_ = (r_->*read)() == v;
        return *this;
    }

    CheckpointWriter* w_ = nullptr;
    CheckpointReader* r_ = nullptr;
    bool ok_ = true;
};

using FingerprintFn = std::function<void(Fingerprint&)>;

/// Stage and commit one snapshot at `path` under the supervisor's retry
/// policy: a "fingerprint" section, then the sections `body` opens.
void writeSnapshot(const std::string& path, const RunSupervisor* supervisor,
                   const FingerprintFn& fingerprint,
                   const std::function<void(CheckpointWriter&)>& body);

/// Open the resume generation at `path` (pickResumeSnapshot) and check
/// its "fingerprint" section; a mismatch throws ConfigError naming
/// `label`. Call it inside asResumeError: read failures are
/// CheckpointErrors.
std::unique_ptr<CheckpointReader> openSnapshot(const std::string& path,
                                               const FingerprintFn& fingerprint,
                                               const std::string& label);

/// Run `read`, raising any CheckpointError it throws as ResumeError so
/// callers can fall back to a fresh run on an unreadable snapshot. A
/// fingerprint mismatch (ConfigError) passes through and stays fatal.
template <class F>
void asResumeError(F&& read) {
    try {
        read();
    } catch (const CheckpointError& e) {
        throw ResumeError(e.what());
    }
}

class EmRun {
  public:
    /// Snapshot shape (see the layouts above).
    enum class Layout {
        PerLocus,  ///< EM over L loci; sections sampler.<l>, sink.<l>, monitor.<l>
        OneSlot,   ///< EM over one slot; sections sampler, sink, monitor
        OnePhase,  ///< one sampling phase; no EM index; sections sampler, monitor
    };

    /// The parts of the snapshot the estimator serializes itself. The
    /// context words follow the EM index and describe the state the
    /// current EM iteration started from (driving value, history, warm
    /// starts): unchanged during sample(), advanced by the M-step to the
    /// next iteration's start, which boundary() records.
    struct Owner {
        FingerprintFn fingerprint;
        std::function<void(CheckpointWriter&)> writeContext;
        std::function<void(CheckpointReader&)> readContext;
    };

    /// `control` holds the run's stop and checkpoint settings. `label`
    /// names the estimator in fault dumps and fingerprint mismatches.
    EmRun(const RunControl& control, ThreadPool* pool, Layout layout, std::string label,
          std::size_t emIterations, Owner owner)
        : control_(control),
          pool_(pool),
          layout_(layout),
          label_(std::move(label)),
          emIterations_(emIterations),
          owner_(std::move(owner)) {}

    /// The EM index to start from: 0 on a fresh run; on resume, the
    /// snapshot's (its context read through owner.readContext, a
    /// mid-phase snapshot's slot state kept for the first sample()).
    /// Read failures raise ResumeError; a snapshot that already covers
    /// every EM iteration raises ConfigError.
    std::size_t resume();

    /// EM-boundary stop: a stop that lands during the M-step is honoured
    /// before the next E-step allocates anything; the previous boundary
    /// snapshot already covers this state.
    void checkStop(std::size_t em) const;

    /// EM iteration `em`'s sampling phase over `slots`: burn-in, then up
    /// to `sampleTicks` ticks per slot, with the stopping rule, checkpoints
    /// and stop polling wired in. `theta` and `seed` label fault dumps.
    MultiLocusReport sample(std::size_t em, std::vector<LocusSlot> slots,
                            std::size_t burnTicks, std::size_t sampleTicks, double theta,
                            std::uint64_t seed);

    /// Snapshot after iteration `em`'s M-step (none after the last), so the
    /// next iteration restarts cleanly if the process dies in between.
    void boundary(std::size_t em) const;

  private:
    /// Mid-phase snapshot (progress words and slot sections) when `slots`
    /// is non-null, else the start of EM iteration `em`.
    void write(std::size_t em, const std::vector<LocusSlot>* slots, std::size_t burnDone,
               std::span<const std::uint64_t> sampleDone,
               std::span<const std::uint8_t> stopped) const;
    /// Visit the slot sections in file order (every sampler, every sink in
    /// the EM layouts, every monitor) with the sampler or the sink.
    void eachSection(const std::vector<LocusSlot>& slots,
                     const std::function<void(const std::string&, Sampler*, SampleSink*)>& f) const;

    RunControl control_;
    ThreadPool* pool_;
    Layout layout_;
    std::string label_;
    std::size_t emIterations_;
    Owner owner_;
    std::size_t emStart_ = 0;
    /// Mid-phase resume snapshot, positioned at the progress words.
    std::unique_ptr<CheckpointReader> pending_;
};

}  // namespace mpcgs
