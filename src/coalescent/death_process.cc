#include "coalescent/death_process.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Coefficients of S_{a,b}(t) = sum_{k=b}^{a} coeff[k-b] * exp(-lambda_k t)
/// for a pure death chain with distinct rates lambda_b..lambda_a
/// (lambda_k = hazard at state k), written to out[0..a-b].
void transitionCoeffs(int a, int b, const double* lambda, double* out) {
    double rateProd = 1.0;
    for (int l = b + 1; l <= a; ++l) rateProd *= lambda[l];
    for (int k = b; k <= a; ++k) {
        double denom = 1.0;
        for (int l = b; l <= a; ++l) {
            if (l == k) continue;
            denom *= lambda[l] - lambda[k];
        }
        out[k - b] = rateProd / denom;
    }
}

/// S_{a,b}(t) from its coefficient set and decay[k] = exp(-lambda_k t).
double transitionFrom(int a, int b, double t, const double* coeff, const double* decay) {
    if (t == 0.0) return a == b ? 1.0 : 0.0;
    if (a == b) return decay[a];
    double acc = 0.0;
    for (int k = b; k <= a; ++k) acc += coeff[k - b] * decay[k];
    // Round-off can produce tiny negatives for near-degenerate rates.
    return acc < 0.0 ? 0.0 : acc;
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
    if (t == kInf && a != b) return b == 1 ? 1.0 : 0.0;  // all merges eventually happen
    const auto n = static_cast<std::size_t>(a + 1);
    std::vector<double> lambda(n, 0.0), decay(n, 0.0), coeff(n);
    for (int k = 2; k <= a; ++k) lambda[static_cast<std::size_t>(k)] = rate(k, m, theta);
    for (int k = b; k <= a; ++k)
        decay[static_cast<std::size_t>(k)] = std::exp(-lambda[static_cast<std::size_t>(k)] * t);
    transitionCoeffs(a, b, lambda.data(), coeff.data());
    return transitionFrom(a, b, t, coeff.data(), decay.data());
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
    require(totalActive_ <= kMaxActive, "DeathProcess: too many active lineages");
    bounded_ = std::isfinite(intervals_.back().end);
    buildBackwardRecursion();
}

void DeathProcess::buildBackwardRecursion() {
    const std::size_t R = intervals_.size();
    const std::size_t k1 = this->k1();
    const int K = totalActive_;
    coeffStride_ = coeffOffset(K + 1, 1);
    hStart_.assign((R + 1) * k1, 0.0);
    trans_.assign(R * k1 * k1, 0.0);
    lambda_.assign(R * k1, 0.0);
    coeff_.assign(R * coeffStride_, 0.0);

    // Terminal condition: exactly one active lineage survives a bounded
    // region; an unbounded region always completes.
    double* hEnd = hStart_.data() + R * k1;
    for (int j = 1; j <= K; ++j) hEnd[j] = (bounded_ ? (j == 1 ? 1.0 : 0.0) : 1.0);

    // Every entry below is computed by the same operations, in the same
    // order, as transitionProb and the S_{a,b} coefficients it uses, so
    // the tables hold exactly the bits a direct evaluation returns.
    std::array<double, kMaxActive + 1> decay{};
    for (std::size_t i = R; i-- > 0;) {
        const auto& iv = intervals_[i];
        double* h = hStart_.data() + i * k1;
        if (!std::isfinite(iv.end)) {
            // Unbounded final interval: every entry state completes.
            std::fill_n(h, k1, 1.0);
            continue;
        }
        const double t = iv.length();
        double* lambda = lambda_.data() + i * k1;
        for (int k = 2; k <= K; ++k) lambda[k] = rate(k, iv.inactive, theta_);
        double* coeff = coeff_.data() + i * coeffStride_;
        for (int a = 1; a <= K; ++a)
            for (int b = 1; b <= a; ++b) transitionCoeffs(a, b, lambda, coeff + coeffOffset(a, b));
        for (int k = 1; k <= K; ++k) decay[static_cast<std::size_t>(k)] = std::exp(-lambda[k] * t);

        const double* hNext = h + k1;
        const int enterNext = (i + 1 < R) ? intervals_[i + 1].activeEnter : 0;
        for (int j = 1; j <= K; ++j) {
            double acc = 0.0;
            for (int b = 1; b <= j; ++b) {
                const double s = transitionFrom(j, b, t, coeff + coeffOffset(j, b), decay.data());
                trans_[pairIndex(i, j, b)] = s;
                if (s == 0.0) continue;
                const int nextState = b + enterNext;
                if (nextState > K) continue;
                acc += s * hNext[nextState];
            }
            h[j] = acc;
        }
    }
}

double DeathProcess::completionProbability() const {
    const int j0 = intervals_[0].activeEnter;
    if (j0 < 1) return 0.0;
    return hStart_[static_cast<std::size_t>(j0)];
}

double DeathProcess::sampleFirstEventTime(std::size_t i, int j, int b, double T,
                                          double* terms, std::uint64_t& cdfEvals,
                                          Rng& rng) const {
    // Density on u in (0, T):
    //   f(u) = lambda_j e^{-lambda_j u} S_{j-1,b}(T-u) / S_{j,b}(T),
    // whose CDF is an analytic sum of exponentials, inverted by bisection.
    const double* lambda = lambda_.data() + i * k1();
    const double lj = lambda[j];
    const double* coeff = coeff_.data() + i * coeffStride_ + coeffOffset(j - 1, b);

    // The u-independent factor c * lj * e^{-lk T} of each term, hoisted out
    // of the bisection with the same left-to-right product order.
    for (int k = b; k <= j - 1; ++k) {
        const double lk = lambda[k];
        terms[k - b] = coeff[k - b] * lj * std::exp(-lk * T);
    }
    auto cdfUnnorm = [&](double u) {
        ++cdfEvals;
        double acc = 0.0;
        for (int k = b; k <= j - 1; ++k) {
            const double lk = lambda[k];
            // integral of lj e^{-lj v} e^{-lk (T - v)} over v in (0, u)
            acc += terms[k - b] * std::expm1((lk - lj) * u) / (lk - lj);
        }
        return acc;
    };

    const double total = cdfUnnorm(T);
    require(total > 0.0, "DeathProcess: degenerate event-time distribution");
    const double target = rng.uniformPos() * total;

    // The bisection below compares cdfUnnorm(mid) < target at up to ~50
    // midpoints. It is replayed bit for bit with far fewer evaluations.
    //
    // Exact function. Take the stored rates lambda_k as exact reals and let
    // G(u) = sum_k t*_k expm1(d_k u) / d_k, d_k = lambda_k - lambda_j < 0,
    // with t*_k = c*_k lambda_j e^{-lambda_k T} built from the exact
    // partial-fraction coefficients c*_k of those rates. Then
    // G'(u) = lambda_j e^{-lambda_j u} S*_{j-1,b}(T - u) >= 0, a transition
    // probability: G is non-decreasing.
    //
    // Error bound. With unit roundoff r0 = 2^-53, exp and expm1 within
    // 2 ulp, and first-order terms only, cdfUnnorm's summand k carries a
    // relative error of at most
    //   3K r0               the stored coefficient: <= 3K - 7 roundings
    //                       in its products, differences and quotient
    // + (6 + lambda_k T) r0 the two products forming terms[k] and exp,
    //                       whose rounded argument -lambda_k T moves the
    //                       result by lambda_k T r0 relatively
    // + 9 r0                the difference d_k (it enters twice), the
    //                       product d_k u (expm1's relative condition is
    //                       |x| e^x / (1 - e^x) <= 1 for x < 0), expm1,
    //                       the product and the quotient
    // + (K - 2) r0          its share of the running sum,
    // and |summand_k| <= |t*_k| (1 - e^{d_k u}) / |d_k| <= |t*_k| min(T, 1/|d_k|)
    // for u in [0, T]. Doubling the first-order bound absorbs the
    // higher-order terms and E's own rounding, so for every u in [0, T]
    //   |cdfUnnorm(u) - G(u)| <= E = 2 r0 sum_k |terms[k]| min(T, 1/|d_k|)
    //                                     * (4K + 14 + lambda_k T).
    // A fused multiply-add only removes roundings, so the bound holds for
    // every build.
    double errMass = 0.0;
    const double perOp = 4.0 * totalActive_ + 14.0;
    for (int k = b; k <= j - 1; ++k) {
        const double lk = lambda[k];
        errMass += std::abs(terms[k - b]) * std::min(T, 1.0 / (lj - lk)) * (perOp + lk * T);
    }
    const double E = std::numeric_limits<double>::epsilon() * errMass;

    // Root of cdfUnnorm(u) = target: exact inverse for a single term,
    // else safeguarded Newton on (0, T) with slope sum_k terms[k] e^{d_k u}.
    double r = T * (target / total);
    if (j - 1 == b) {
        const double d = lambda[b] - lj;
        r = std::log1p(target * d / terms[0]) / d;
    }
    double below = 0.0, above = T, residual = 0.0, slope = 0.0;
    for (int step = 0;; ++step) {
        if (!(r > below && r < above)) r = 0.5 * (below + above);
        double F = 0.0;
        slope = 0.0;
        for (int k = b; k <= j - 1; ++k) {
            const double d = lambda[k] - lj;
            const double e = std::expm1(d * r);
            F += terms[k - b] * e / d;
            slope += terms[k - b] * (e + 1.0);
        }
        residual = F - target;
        if (std::abs(residual) <= E || step == 8) break;
        (residual < 0.0 ? below : above) = r;
        r -= residual / slope;
    }

    // Certified bracket [certLo, certHi]. By the bound and monotonicity of
    // G, cdfUnnorm(certLo) + 2E < target implies, for every mid <= certLo,
    //   cdfUnnorm(mid) <= G(mid) + E <= G(certLo) + E <= cdfUnnorm(certLo) + 2E < target,
    // and cdfUnnorm(certHi) - 2E > target gives cdfUnnorm(mid) > target for
    // every mid >= certHi (rounding to nearest is monotone, so the
    // floating-point sums keep both strict inequalities). Each side starts
    // a few error-widths from r and widens twice by 16; a side that cannot
    // be certified, or would leave (0, T), stays unbounded (-inf / +inf),
    // and with both unbounded the loop below evaluates every mid.
    double width = 2.0 * (std::abs(residual) + 4.0 * E) / slope;
    if (!(width > 0.0 && width < T)) width = T;  // a slope <= 0 or not finite: no bracket
    double certLo = -kInf, certHi = kInf;
    double w = width;
    for (int tries = 0; tries < 3 && r - w > 0.0; ++tries, w *= 16.0) {
        if (cdfUnnorm(r - w) + 2.0 * E < target) {
            certLo = r - w;
            break;
        }
    }
    w = width;
    for (int tries = 0; tries < 3 && r + w < T; ++tries, w *= 16.0) {
        if (cdfUnnorm(r + w) - 2.0 * E > target) {
            certHi = r + w;
            break;
        }
    }

    // The bisection itself, unchanged but for the settled comparisons.
    double lo = 0.0, hi = T;
    for (int it = 0; it < 200 && (hi - lo) > 1e-15 * (1.0 + T); ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= certLo || (mid < certHi && cdfUnnorm(mid) < target))
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

void DeathProcess::sampleMergeTimes(Rng& rng, std::span<double> times) const {
    require(completionProbability() > 0.0, "DeathProcess: infeasible region");
    require(times.size() == static_cast<std::size_t>(totalActive_ - 1),
            "DeathProcess: merge-time storage must hold K-1 times");
    // Stack scratch for the end-count weights (first j+1 entries used) and
    // the event-time terms.
    std::array<double, kMaxActive + 1> weights{};
    std::array<double, kMaxActive> terms{};
    std::size_t placed = 0;
    std::uint64_t draws = 0, cdfEvals = 0;

    int j = 0;
    const std::size_t R = intervals_.size();
    const std::size_t k1 = this->k1();
    for (std::size_t i = 0; i < R; ++i) {
        const auto& iv = intervals_[i];
        j += iv.activeEnter;

        if (!std::isfinite(iv.end)) {
            // Unconditioned exponential race until one active remains.
            double t = iv.begin;
            while (j > 1) {
                t += rng.exponential(rate(j, iv.inactive, theta_));
                times[placed++] = t;
                --j;
            }
            break;
        }

        // Choose the end-of-interval count b with the backward weights
        // (paper's forward walk over P_i(n)).
        const int enterNext = (i + 1 < R) ? intervals_[i + 1].activeEnter : 0;
        std::fill_n(weights.begin(), j + 1, 0.0);
        for (int b = 1; b <= j; ++b) {
            const double s = trans_[pairIndex(i, j, b)];
            if (s == 0.0) continue;
            const double hNext = (i + 1 < R)
                                     ? ((b + enterNext <= totalActive_)
                                            ? hStart_[(i + 1) * k1 + static_cast<std::size_t>(b + enterNext)]
                                            : 0.0)
                                     : (bounded_ ? (b == 1 ? 1.0 : 0.0) : 1.0);
            weights[static_cast<std::size_t>(b)] = s * hNext;
        }
        const int b = static_cast<int>(rng.categorical(
            std::span<const double>(weights.data(), static_cast<std::size_t>(j + 1))));

        // Place the j-b merge times inside the interval.
        double offset = 0.0;
        double remaining = iv.length();
        int cur = j;
        while (cur > b) {
            const double u =
                sampleFirstEventTime(i, cur, b, remaining, terms.data(), cdfEvals, rng);
            ++draws;
            offset += u;
            remaining -= u;
            times[placed++] = iv.begin + offset;
            --cur;
        }
        j = b;
    }
    require(placed == times.size(), "DeathProcess: draw placed the wrong number of merges");

    std::sort(times.begin(), times.end());
    obs::add(obs::Counter::CoalescentMergeDraws, draws);
    obs::add(obs::Counter::CoalescentCdfEvals, cdfEvals);
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
