#include "lik/lik_backend.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "lik/forest_kernels.h"
#include "obs/metrics.h"

namespace mpcgs {

namespace {

/// Pattern-block width of the flat combine launch: one item touches
/// 4 * kPatternBlock doubles per category per operand, sized to stay
/// cache-resident while giving thread counts beyond the op count
/// something to steal.
constexpr std::size_t kPatternBlock = 256;

}  // namespace

LikelihoodBackend::LikelihoodBackend(const DataLikelihood& lik)
    : patterns_(lik.patterns()),
      model_(lik.model()),
      pi_(lik.rootFreqs()),
      rates_(lik.rateCategories()) {
    const std::size_t P = patterns_.patternCount();
    const std::size_t C = rates_.count();
    dataLen_ = C * P * 4;
    dataStride_ = roundUpTo(dataLen_, kCacheLineBytes / sizeof(double));
    scaleStride_ = roundUpTo(P, kCacheLineBytes / sizeof(double));
}

void LikelihoodBackend::resizeSlots(std::size_t n) {
    data_.ensure(n * dataStride_);
    scale_.ensure(n * scaleStride_);
    if (tipOps_.size() < n) {
        tipOps_.resize(n);
        combineOps_.resize(n);
        rootOps_.resize(n);
        lenKeys_.reserve(2 * n);
        matStore_.resize(2 * n * rates_.count());
    }
}

void LikelihoodBackend::copySlot(Slot dst, Slot src) {
    if (dst == src) return;
    std::memcpy(dataPtr(dst), dataPtr(src), dataLen_ * sizeof(double));
    std::memcpy(scalePtr(dst), scalePtr(src), patterns_.patternCount() * sizeof(double));
}

void LikelihoodBackend::flush(ThreadPool* pool) {
    const std::size_t P = patterns_.patternCount();
    const std::size_t C = rates_.count();
    const std::size_t nTips = nTips_.load(std::memory_order_relaxed);
    const std::size_t nCombines = nCombines_.load(std::memory_order_relaxed);
    const std::size_t nRoots = nRoots_.load(std::memory_order_relaxed);

    // 1. Tip initializations.
    forEachIndex(
        pool, nTips,
        [&](std::size_t i) {
            const TipOp& op = tipOps_[i];
            forestTipInitRange(patterns_, op.tip, dataPtr(op.dst), scalePtr(op.dst), P, C,
                               0, P);
        },
        /*grain=*/1);

    if (nCombines > 0) {
        // 2. Distinct transition matrices, once per (length, category).
        lenKeys_.clear();
        for (std::size_t i = 0; i < nCombines; ++i) {
            lenKeys_.push_back(std::bit_cast<std::uint64_t>(combineOps_[i].lenA));
            lenKeys_.push_back(std::bit_cast<std::uint64_t>(combineOps_[i].lenB));
        }
        std::sort(lenKeys_.begin(), lenKeys_.end());
        lenKeys_.erase(std::unique(lenKeys_.begin(), lenKeys_.end()), lenKeys_.end());
        const std::size_t nLens = lenKeys_.size();
        forEachIndex(
            pool, nLens,
            [&](std::size_t d) {
                const double len = std::bit_cast<double>(lenKeys_[d]);
                for (std::size_t c = 0; c < C; ++c)
                    matStore_[d * C + c] = model_.transition(len * rates_.rates[c]);
            },
            /*grain=*/1);
        obs::add(obs::Counter::LikMatricesComputed, nLens * C);

        const auto lenIndex = [&](double len) {
            const std::uint64_t key = std::bit_cast<std::uint64_t>(len);
            return static_cast<std::uint32_t>(
                std::lower_bound(lenKeys_.begin(), lenKeys_.end(), key) - lenKeys_.begin());
        };
        for (std::size_t i = 0; i < nCombines; ++i) {
            combineOps_[i].matA = lenIndex(combineOps_[i].lenA);
            combineOps_[i].matB = lenIndex(combineOps_[i].lenB);
        }

        // 3. One flat launch over (combine op x pattern block).
        const std::size_t nBlocks = (P + kPatternBlock - 1) / kPatternBlock;
        forEachIndex(
            pool, nCombines * nBlocks,
            [&](std::size_t item) {
                const CombineOp& op = combineOps_[item / nBlocks];
                const std::size_t p0 = (item % nBlocks) * kPatternBlock;
                const std::size_t n = std::min(kPatternBlock, P - p0);
                const double* va = dataPtr(op.childA);
                const double* vb = dataPtr(op.childB);
                double* vo = dataPtr(op.parent);
                for (std::size_t c = 0; c < C; ++c)
                    forestCombineRange(matStore_[op.matA * C + c], matStore_[op.matB * C + c],
                                       va + c * P * 4, vb + c * P * 4, vo + c * P * 4, p0, n);
                forestRescaleRange(vo, scalePtr(op.parent), scalePtr(op.childA),
                                   scalePtr(op.childB), P, C, p0, n);
            },
            /*grain=*/1);
    }

    // 4. Root folds (serial in-pattern-order per op; ops in parallel).
    forEachIndex(
        pool, nRoots,
        [&](std::size_t i) {
            const RootOp& op = rootOps_[i];
            *op.out = forestRootLogLik(dataPtr(op.slot), scalePtr(op.slot), patterns_, pi_,
                                       rates_);
        },
        /*grain=*/1);

    // flush() is serial-context (header contract), so these registry
    // counts are deterministic per run. matrices_requested vs
    // matrices_computed is the dedup hit-rate the batching buys.
    obs::add(obs::Counter::LikFlushes);
    obs::add(obs::Counter::LikCombineOps, nCombines);
    obs::add(obs::Counter::LikMatricesRequested, 2 * C * nCombines);
    nTips_.store(0, std::memory_order_relaxed);
    nCombines_.store(0, std::memory_order_relaxed);
    nRoots_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<LikelihoodBackend> makeLikelihoodBackend(LikBackendKind /*kind*/,
                                                         const DataLikelihood& lik) {
    return std::make_unique<LikelihoodBackend>(lik);
}

}  // namespace mpcgs
