#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Tail tailAtLeast(const std::vector<double>& v, std::size_t beyond) {
    Tail t;
    if (v.size() < 2 * beyond) {
        t.value = median(v);
        return t;
    }
    // Percentiles in whole steps of 0.1: the highest one whose nearest-rank
    // position leaves `beyond` samples above it.
    const double n = static_cast<double>(v.size());
    double p = std::floor(1000.0 * (1.0 - static_cast<double>(beyond) / n)) / 10.0;
    t.percentile = std::max(50.0, p);
    t.value = quantile(v, t.percentile / 100.0);
    return t;
}

void Ops::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t n, std::string note) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_[name] = Metric{value, unit, n, std::move(note)};
}

void Report::provenance(const std::string& key, const std::string& jsonValue) {
    provenance_.emplace_back(key, jsonValue);
}

namespace {

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

}  // namespace

void Report::print(const Ops& ops) const {
    for (const auto& [name, m] : metrics_)
        std::printf("metric %-28s %14.6g %-9s n=%zu%s%s\n", name.c_str(), m.value,
                    m.unit.c_str(), m.n, m.note.empty() ? "" : "  ", m.note.c_str());
    std::printf("ops attempted=%zu failed=%zu\n", ops.attempted, ops.failed);

    std::string detail = "{\"detail\":{\"provenance\":{";
    for (std::size_t i = 0; i < provenance_.size(); ++i)
        detail += (i ? "," : "") + std::string("\"") + provenance_[i].first +
                  "\":" + provenance_[i].second;
    detail += "},\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        detail += (first ? "\"" : ",\"") + name + "\":{\"value\":" + num(m.value) +
                  ",\"unit\":\"" + m.unit + "\",\"n\":" + std::to_string(m.n) +
                  ",\"note\":\"" + jsonEscape(m.note) + "\"}";
        first = false;
    }
    detail += "},\"failures\":[";
    for (std::size_t i = 0; i < ops.failures.size(); ++i)
        detail += (i ? ",\"" : "\"") + jsonEscape(ops.failures[i]) + "\"";
    detail += "]}}";
    std::printf("%s\n", detail.c_str());

    std::string result = "{\"correct\":" + std::string(ops.failed == 0 ? "true" : "false") +
                         ",\"attempted\":" + std::to_string(ops.attempted) +
                         ",\"failed\":" + std::to_string(ops.failed) + ",\"metrics\":{";
    first = true;
    for (const auto& [name, m] : metrics_) {
        result += (first ? "\"" : ",\"") + name + "\":{\"value\":" + num(m.value) +
                  ",\"unit\":\"" + m.unit + "\"}";
        first = false;
    }
    result += "}}";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
}

std::size_t SpanLog::open(const char* name, const char* module) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    const std::uint64_t traceUs = rec_ ? rec_->nowUs() : 0;
    const Clock::time_point now = Clock::now();
    spans_.push_back(Span{name, module, round_, parent, traceUs, now, now});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void SpanLog::close(std::size_t span) {
    Span& s = spans_[span];
    s.end = Clock::now();
    if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
    if (rec_) {
        const auto durUs =
            std::chrono::duration_cast<std::chrono::microseconds>(s.end - s.start).count();
        rec_->record(s.name, category(s.module, s.round), s.traceUs,
                     static_cast<std::uint64_t>(durUs));
    }
}

const char* SpanLog::category(const char* module, int round) {
    // Chrome trace categories are a comma-separated list: the module, then
    // the estimate round every span of one round shares.
    std::string key = std::string("bench.") + module + ",round" + std::to_string(round);
    auto it = categoryIndex_.find(key);
    if (it != categoryIndex_.end()) return it->second;
    categories_.push_back(key);
    categoryIndex_[key] = categories_.back().c_str();
    return categories_.back().c_str();
}

std::map<std::string, double> SpanLog::selfMsByModule() const {
    auto ms = [](const Span& s) {
        return std::chrono::duration<double, std::milli>(s.end - s.start).count();
    };
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0) childMs[static_cast<std::size_t>(s.parent)] += ms(s);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].module] += std::max(0.0, ms(spans_[i]) - childMs[i]);
    return out;
}

}  // namespace perfbench
