// Shared pieces of the mpcgs benchmark program: order statistics, the
// metric report printed at exit, operation accounting, heap accounting and
// the benchmark's own span log.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile of `v` that still has at least `beyond` samples
/// above it, and the value there. With fewer than 2 * beyond samples the
/// percentile falls back to the median.
struct Tail {
    double percentile = 50.0;
    double value = 0.0;
};
Tail tailAtLeast(const std::vector<double>& v, std::size_t beyond = 10);

/// One reported metric: value, unit, the number of samples it summarizes,
/// and a free-form note (e.g. the percentile of a tail).
struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;
    std::string note;
};

/// Operations attempted and failed. A failed output check counts as a
/// failed operation; nothing is ever dropped from the count.
struct Ops {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages

    void check(bool ok, const std::string& what);
    double okFrac() const {
        return attempted == 0 ? 0.0
                              : static_cast<double>(attempted - failed) /
                                    static_cast<double>(attempted);
    }
};

class Report {
  public:
    void add(const std::string& name, double value, const std::string& unit, std::size_t n,
             std::string note = "");
    void provenance(const std::string& key, const std::string& jsonValue);
    const std::map<std::string, Metric>& metrics() const { return metrics_; }

    /// Human-readable lines, then one "detail" JSON line (units, sample
    /// counts, notes, provenance), then the result line the harness reads.
    void print(const Ops& ops) const;

  private:
    std::map<std::string, Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> provenance_;
};

/// Bytes live through operator new now (heap.cc replaces the global
/// allocation functions).
std::size_t heapLiveBytes();
/// Peak bytes live since the last heapResetPeak().
std::size_t heapPeakBytes();
/// Restart the peak from the bytes live now, and return them.
std::size_t heapResetPeak();

/// The benchmark's own spans: name, module, start, end, parent and the id
/// of the estimate round they belong to. Spans are opened and closed on the
/// benchmark's thread only, so they nest strictly; each closed span is also
/// recorded into an mpcgs::obs::TraceRecorder for the Chrome trace.
class SpanLog {
  public:
    explicit SpanLog(mpcgs::obs::TraceRecorder* recorder) : rec_(recorder) {}

    /// All spans opened from now on carry this id (one per estimate round).
    void setRound(int id) { round_ = id; }

    std::size_t open(const char* name, const char* module);
    void close(std::size_t span);

    /// Self time per module in milliseconds: each span's duration minus the
    /// time its child spans cover.
    std::map<std::string, double> selfMsByModule() const;
    std::size_t size() const { return spans_.size(); }

  private:
    struct Span {
        const char* name;
        const char* module;
        int round;
        long parent;
        std::uint64_t traceUs;  ///< start on the recorder's clock
        Clock::time_point start;
        Clock::time_point end;
    };
    const char* category(const char* module, int round);

    mpcgs::obs::TraceRecorder* rec_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::deque<std::string> categories_;  ///< stable storage for recorder categories
    std::map<std::string, const char*> categoryIndex_;
    int round_ = 0;
};

/// RAII span on a SpanLog (a no-op when the log is null, as in timed runs).
class Span {
  public:
    Span(SpanLog* log, const char* name, const char* module)
        : log_(log), id_(log ? log->open(name, module) : 0) {}
    ~Span() {
        if (log_) log_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanLog* log_;
    std::size_t id_;
};

}  // namespace perfbench
