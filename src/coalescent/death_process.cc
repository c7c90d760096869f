#include "coalescent/death_process.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Coefficients of S_{a,b}(t) = sum_{k=b}^{a} coeff[k-b] * exp(-lambda_k t)
/// for a pure death chain with distinct rates lambda_b..lambda_a
/// (lambda_k = hazard at state k).
std::vector<double> transitionCoeffs(int a, int b, const std::vector<double>& lambda) {
    const int len = a - b + 1;
    std::vector<double> coeff(static_cast<std::size_t>(len));
    double rateProd = 1.0;
    for (int l = b + 1; l <= a; ++l) rateProd *= lambda[static_cast<std::size_t>(l)];
    for (int k = b; k <= a; ++k) {
        double denom = 1.0;
        for (int l = b; l <= a; ++l) {
            if (l == k) continue;
            denom *= lambda[static_cast<std::size_t>(l)] - lambda[static_cast<std::size_t>(k)];
        }
        coeff[static_cast<std::size_t>(k - b)] = rateProd / denom;
    }
    return coeff;
}

/// Rates lambda_0..lambda_jmax for a given inactive count.
std::vector<double> rateVector(int jmax, int m, double theta) {
    std::vector<double> lambda(static_cast<std::size_t>(jmax + 1), 0.0);
    for (int j = 2; j <= jmax; ++j)
        lambda[static_cast<std::size_t>(j)] = DeathProcess::rate(j, m, theta);
    return lambda;
}

}  // namespace

double DeathProcess::rate(int j, int m, double theta) {
    require(theta > 0.0, "DeathProcess: theta must be positive");
    require(j >= 0 && m >= 0, "DeathProcess: negative lineage count");
    if (j < 2) return 0.0;  // a lone active lineage is absorbing
    return static_cast<double>(j) * (j - 1 + 2 * m) / theta;
}

double DeathProcess::transitionProb(int a, int b, double t, int m, double theta) {
    require(a >= 1 && b >= 1, "transitionProb: counts must be >= 1");
    if (b > a) return 0.0;
    if (t == 0.0) return a == b ? 1.0 : 0.0;
    require(t > 0.0, "transitionProb: negative duration");
    const auto lambda = rateVector(a, m, theta);
    if (a == b) return std::exp(-lambda[static_cast<std::size_t>(a)] * t);
    if (t == kInf) return b == 1 ? 1.0 : 0.0;  // all merges eventually happen
    const auto coeff = transitionCoeffs(a, b, lambda);
    double acc = 0.0;
    for (int k = b; k <= a; ++k)
        acc += coeff[static_cast<std::size_t>(k - b)] *
               std::exp(-lambda[static_cast<std::size_t>(k)] * t);
    // Round-off can produce tiny negatives for near-degenerate rates.
    return acc < 0.0 ? 0.0 : acc;
}

DeathProcess::DeathProcess(std::vector<FeasibleInterval> intervals, double theta)
    : intervals_(std::move(intervals)), theta_(theta) {
    require(!intervals_.empty(), "DeathProcess: no intervals");
    require(theta_ > 0.0, "DeathProcess: theta must be positive");
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
        const auto& iv = intervals_[i];
        require(iv.length() >= 0.0, "DeathProcess: negative interval length");
        require(iv.inactive >= 0, "DeathProcess: negative inactive count");
        require(iv.activeEnter >= 0, "DeathProcess: negative activeEnter");
        if (i + 1 < intervals_.size()) {
            require(std::isfinite(iv.end), "DeathProcess: only the last interval may be unbounded");
            require(std::abs(iv.end - intervals_[i + 1].begin) <= 1e-9 * (1.0 + std::abs(iv.end)),
                    "DeathProcess: intervals not contiguous");
        }
        totalActive_ += iv.activeEnter;
    }
    require(totalActive_ >= 2, "DeathProcess: need at least two active lineages");
    bounded_ = std::isfinite(intervals_.back().end);
    buildBackwardRecursion();
}

void DeathProcess::buildBackwardRecursion() {
    const std::size_t R = intervals_.size();
    const std::size_t k1 = static_cast<std::size_t>(totalActive_ + 1);
    hStart_.assign(R + 1, std::vector<double>(k1, 0.0));
    trans_.assign(R * k1 * k1, 0.0);
    lambda_.assign(R * k1, 0.0);
    coeffAt_.assign(R * k1 * k1, 0);
    coeff_.clear();

    // Terminal condition: exactly one active lineage survives a bounded
    // region; an unbounded region always completes.
    for (int j = 1; j <= totalActive_; ++j)
        hStart_[R][static_cast<std::size_t>(j)] = (bounded_ ? (j == 1 ? 1.0 : 0.0) : 1.0);

    for (std::size_t i = R; i-- > 0;) {
        const auto& iv = intervals_[i];
        if (!std::isfinite(iv.end)) {
            // Unbounded final interval: every entry state completes.
            for (int j = 0; j <= totalActive_; ++j)
                hStart_[i][static_cast<std::size_t>(j)] = 1.0;
            continue;
        }
        const int enterNext = (i + 1 < R) ? intervals_[i + 1].activeEnter : 0;
        for (int j = 1; j <= totalActive_; ++j) {
            double acc = 0.0;
            for (int b = 1; b <= j; ++b) {
                const double s = transitionProb(j, b, iv.length(), iv.inactive, theta_);
                trans_[pairIndex(i, j, b)] = s;
                if (s == 0.0) continue;
                const int nextState = b + enterNext;
                if (nextState > totalActive_) continue;
                acc += s * hStart_[i + 1][static_cast<std::size_t>(nextState)];
            }
            hStart_[i][static_cast<std::size_t>(j)] = acc;
        }

        // Event-time tables: the rates and the S_{a,b} coefficients that
        // sampleFirstEventTime needs (a = j - 1 for 1 <= b < j <= K).
        const auto lambda = rateVector(totalActive_, iv.inactive, theta_);
        std::copy(lambda.begin(), lambda.end(), lambda_.begin() + static_cast<long>(i * k1));
        for (int a = 1; a < totalActive_; ++a) {
            for (int b = 1; b <= a; ++b) {
                coeffAt_[pairIndex(i, a, b)] = coeff_.size();
                const auto coeff = transitionCoeffs(a, b, lambda);
                coeff_.insert(coeff_.end(), coeff.begin(), coeff.end());
            }
        }
    }
}

double DeathProcess::completionProbability() const {
    const int j0 = intervals_[0].activeEnter;
    if (j0 < 1) return 0.0;
    return hStart_[0][static_cast<std::size_t>(j0)];
}

double DeathProcess::sampleFirstEventTime(std::size_t i, int j, int b, double T,
                                          double* terms, Rng& rng) const {
    // Density on u in (0, T):
    //   f(u) = lambda_j e^{-lambda_j u} S_{j-1,b}(T-u) / S_{j,b}(T),
    // whose CDF is an analytic sum of exponentials; invert by bisection.
    const double* lambda = lambda_.data() + i * static_cast<std::size_t>(totalActive_ + 1);
    const double lj = lambda[static_cast<std::size_t>(j)];
    const double* coeff = coeff_.data() + coeffAt_[pairIndex(i, j - 1, b)];

    // The u-independent factor c * lj * e^{-lk T} of each term, hoisted out
    // of the bisection with the same left-to-right product order.
    for (int k = b; k <= j - 1; ++k) {
        const double lk = lambda[static_cast<std::size_t>(k)];
        terms[k - b] = coeff[static_cast<std::size_t>(k - b)] * lj * std::exp(-lk * T);
    }
    auto cdfUnnorm = [&](double u) {
        double acc = 0.0;
        for (int k = b; k <= j - 1; ++k) {
            const double lk = lambda[static_cast<std::size_t>(k)];
            // integral of lj e^{-lj v} e^{-lk (T - v)} over v in (0, u)
            acc += terms[k - b] * std::expm1((lk - lj) * u) / (lk - lj);
        }
        return acc;
    };

    const double total = cdfUnnorm(T);
    require(total > 0.0, "DeathProcess: degenerate event-time distribution");
    const double target = rng.uniformPos() * total;
    double lo = 0.0, hi = T;
    for (int it = 0; it < 200 && (hi - lo) > 1e-15 * (1.0 + T); ++it) {
        const double mid = 0.5 * (lo + hi);
        if (cdfUnnorm(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

std::vector<double> DeathProcess::sampleMergeTimes(Rng& rng) const {
    require(completionProbability() > 0.0, "DeathProcess: infeasible region");
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(totalActive_ - 1));
    // One scratch row for the end-count weights (first j+1 entries used)
    // and the event-time terms.
    const std::size_t k1 = static_cast<std::size_t>(totalActive_ + 1);
    std::vector<double> scratch(2 * k1);
    double* weights = scratch.data();
    double* terms = scratch.data() + k1;

    int j = 0;
    const std::size_t R = intervals_.size();
    for (std::size_t i = 0; i < R; ++i) {
        const auto& iv = intervals_[i];
        j += iv.activeEnter;

        if (!std::isfinite(iv.end)) {
            // Unconditioned exponential race until one active remains.
            double t = iv.begin;
            while (j > 1) {
                t += rng.exponential(rate(j, iv.inactive, theta_));
                times.push_back(t);
                --j;
            }
            break;
        }

        // Choose the end-of-interval count b with the backward weights
        // (paper's forward walk over P_i(n)).
        const int enterNext = (i + 1 < R) ? intervals_[i + 1].activeEnter : 0;
        std::fill_n(weights, j + 1, 0.0);
        for (int b = 1; b <= j; ++b) {
            const double s = trans_[pairIndex(i, j, b)];
            if (s == 0.0) continue;
            const double hNext = (i + 1 < R)
                                     ? ((b + enterNext <= totalActive_)
                                            ? hStart_[i + 1][static_cast<std::size_t>(b + enterNext)]
                                            : 0.0)
                                     : (bounded_ ? (b == 1 ? 1.0 : 0.0) : 1.0);
            weights[b] = s * hNext;
        }
        const int b = static_cast<int>(
            rng.categorical(std::span<const double>(weights, static_cast<std::size_t>(j + 1))));

        // Place the j-b merge times inside the interval.
        double offset = 0.0;
        double remaining = iv.length();
        int cur = j;
        while (cur > b) {
            const double u = sampleFirstEventTime(i, cur, b, remaining, terms, rng);
            offset += u;
            remaining -= u;
            times.push_back(iv.begin + offset);
            --cur;
        }
        j = b;
    }

    std::sort(times.begin(), times.end());
    return times;
}

double DeathProcess::logDensity(std::span<const double> mergeTimes) const {
    if (static_cast<int>(mergeTimes.size()) != totalActive_ - 1) return -kInf;
    for (std::size_t i = 1; i < mergeTimes.size(); ++i)
        if (mergeTimes[i] < mergeTimes[i - 1]) return -kInf;
    const double h0 = completionProbability();
    if (h0 <= 0.0) return -kInf;

    // Unconditioned trajectory density, walked over intervals.
    double logf = 0.0;
    int j = 0;
    std::size_t e = 0;  // next merge event
    for (const auto& iv : intervals_) {
        j += iv.activeEnter;
        double t = iv.begin;
        while (e < mergeTimes.size() && mergeTimes[e] < iv.end) {
            const double s = mergeTimes[e];
            if (s < iv.begin) return -kInf;  // merge before its interval: impossible
            const double lam = rate(j, iv.inactive, theta_);
            if (lam <= 0.0) return -kInf;  // merge without two active lineages
            logf += std::log(lam) - lam * (s - t);
            t = s;
            --j;
            if (j < 1) return -kInf;
            ++e;
        }
        if (std::isfinite(iv.end)) {
            const double lam = rate(j, iv.inactive, theta_);
            logf += -lam * (iv.end - t);
        }
    }
    if (e != mergeTimes.size()) return -kInf;  // merges beyond a bounded region
    if (bounded_ && j != 1) return -kInf;
    return logf - std::log(h0);
}

int DeathProcess::activeCountBefore(std::span<const double> mergeTimes, double t) const {
    int j = 0;
    for (const auto& iv : intervals_)
        if (iv.begin < t) j += iv.activeEnter;
    for (const double s : mergeTimes)
        if (s < t) --j;
    return j;
}

}  // namespace mpcgs
