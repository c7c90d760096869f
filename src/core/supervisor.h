// Resilient run supervision: cooperative shutdown, wall-time deadlines,
// and checkpoint-write retry with bounded exponential backoff.
//
// A RunSupervisor owns the process-level stop signal for one estimator
// run. SIGTERM/SIGINT set an async-signal-safe flag; the estimators poll
// stopRequested() at tick boundaries (never inside a parallel region), so
// a stop always lands at a consistent state: the run writes one final
// checkpoint and raises InterruptedError, which the tools translate into
// kExitInterrupted. `--resume` from that checkpoint continues
// bitwise-identically to the uninterrupted run. A wall-time deadline
// (`--max-wall-time`) and the `supervisor.stop` fail point (deterministic
// stand-in for a signal in tests) feed the same flag.
//
// Exit-code taxonomy, shared by all tools (see exitCodeFor):
//   0  clean completion (including early convergence)
//   1  unclassified error
//   2  usage / invalid configuration
//   3  interrupted (signal or deadline) — final checkpoint attempted
//   4  resume failed under --resume-policy strict
//   5  numeric fault — diagnostics dumped (core/numeric_guard.h)
//   6  checkpoint I/O fault (after retries)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>

#include "util/error.h"

namespace mpcgs {

inline constexpr int kExitClean = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;
inline constexpr int kExitResumeFailed = 4;
inline constexpr int kExitNumericFault = 5;
inline constexpr int kExitIoFault = 6;

/// Raised from a tick boundary when the supervisor requests a stop. The
/// run has already written (or attempted) its final checkpoint when
/// checkpointWritten() is true; the tools report the path and exit with
/// kExitInterrupted either way.
class InterruptedError : public Error {
  public:
    InterruptedError(const std::string& what, bool checkpointWritten)
        : Error("interrupted: " + what), checkpointWritten_(checkpointWritten) {}

    bool checkpointWritten() const { return checkpointWritten_; }

  private:
    bool checkpointWritten_;
};

class RunSupervisor {
  public:
    struct Config {
        /// Stop after this much wall time; 0 disables the deadline.
        double maxWallSeconds = 0.0;
        /// Retries after the first failed checkpoint write (so N+1
        /// attempts total).
        int checkpointRetries = 3;
        /// First backoff sleep; doubles per retry up to backoffMaxMs.
        double backoffInitialMs = 50.0;
        double backoffMaxMs = 2000.0;
        /// Install SIGTERM/SIGINT handlers for cooperative shutdown
        /// (restored on destruction). Tests that drive the stop flag via
        /// the supervisor.stop fail point can leave this off.
        bool handleSignals = true;
    };

    RunSupervisor();  // default Config
    explicit RunSupervisor(Config cfg);
    ~RunSupervisor();

    RunSupervisor(const RunSupervisor&) = delete;
    RunSupervisor& operator=(const RunSupervisor&) = delete;

    /// True once a signal arrived, the wall-time deadline passed, or the
    /// supervisor.stop fail point fired. Cheap enough for every tick
    /// boundary; latches on first true.
    bool stopRequested() const;

    /// Human-readable cause for the latched stop ("SIGTERM", "wall-time
    /// deadline (...)", "injected stop"); empty when no stop is pending.
    std::string stopReason() const;

    /// Run `write` (which stages and commits one snapshot), retrying on
    /// CheckpointError with bounded exponential backoff. Rethrows the last
    /// error when all attempts fail. Transient full-disk or EINTR
    /// conditions thus cost a delay, not the run.
    void writeCheckpointWithRetry(const std::function<void()>& write) const;

    /// The stop predicate handed to sampler run loops.
    std::function<bool()> stopCallback() const {
        return [this] { return stopRequested(); };
    }

  private:
    Config cfg_;
    std::chrono::steady_clock::time_point start_;
    bool signalsInstalled_ = false;
    // Latched stop cause (0 none, 1 signal, 2 deadline, 3 injected).
    // Atomic because multi-locus runs poll from pool workers.
    mutable std::atomic<int> stopCause_{0};
    mutable std::atomic<int> signum_{0};
};

/// Run `write` with the supervisor's retry policy, or directly when no
/// supervisor is attached — the estimators' checkpoint lambdas wrap
/// themselves in this.
void withCheckpointRetry(const RunSupervisor* supervisor,
                         const std::function<void()>& write);

/// The stop and checkpoint settings of one estimator run, read by EmRun
/// (core/em_run.h). The options of estimateTheta, estimateStructured,
/// runPmmh and estimateThetaAndGrowth derive from it.
struct RunControl {
    /// Convergence-driven stopping, 0 disabling each criterion: an E-step
    /// ends before its cap once R-hat < stopRhat AND pooled ESS >= stopEss.
    double stopRhat = 0.0;
    double stopEss = 0.0;
    /// With a path, snapshots are written during sampling and at every EM
    /// boundary; `resume` continues from it bitwise-identically.
    std::string checkpointPath;
    std::size_t checkpointIntervalTicks = 0;  ///< ticks between snapshots (0 = auto)
    bool resume = false;
    /// Cooperative SIGTERM/SIGINT and wall-time stops, polled at tick and
    /// EM boundaries, and checkpoint-write retry. Not owned; may be null.
    const RunSupervisor* supervisor = nullptr;

    /// Throws ConfigError when resume is set without a checkpoint path.
    void validate() const {
        if (resume && checkpointPath.empty())
            throw ConfigError("options: resume requires a checkpointPath");
    }
};

/// Map an escaped exception onto the documented exit-code taxonomy.
int exitCodeFor(const std::exception& e);

}  // namespace mpcgs
