// Forest likelihood backend — BEAGLE-style batched operation execution
// for the partial-forest (SMC) likelihood path.
//
// Callers never evaluate partials directly: they allocate backend-owned
// PARTIALS SLOTS, enqueue operations against them —
//
//   tipInit(slot, tip)                         fill tip indicator vectors
//   combine(parent, childA, lenA, childB, lenB) Eq. 19 merge of two roots
//   rootLogLik(slot, &out)                     forest root factor -> out
//
// — and then flush() once. Operation RESULTS are visible only after
// flush(). Enqueue is a lock-free append into slot-sized operation arrays
// (one atomic fetch_add per op), so a whole generation of particles can
// queue its combines from inside the propagation launch; flush() then
// executes the batch as a handful of flat launches (the paper's
// device-kernel batching discipline, §5.2):
//
//   1. tip initializations (one launch item per op);
//   2. transition-matrix precompute: the distinct branch-length bit
//      patterns of the batch are sorted + uniqued and each distinct length
//      is exponentiated once per rate category — a generation of N
//      particles shares matrices instead of computing 2C per particle;
//   3. one flat launch over (combine op x pattern block): every item owns
//      a contiguous cache-resident pattern slice of one operation;
//   4. root log-likelihood folds, one launch item per op, each a serial
//      in-pattern-order fold (the fold order is part of the bitwise
//      contract).
//
// Results are slot-indexed, so the nondeterministic enqueue order under
// concurrency never affects values: the shared per-pattern kernels
// (lik/forest_kernels.h) run over the same slots with bit-identical
// matrices, whatever the array order or thread count. The results are
// bitwise equal to the ForestEvaluator reference (lik/forest_eval.h), the
// test oracle that runs the same kernels one operation at a time.
//
// Enqueue thread-safety: tipInit/combine/rootLogLik may be called
// concurrently from inside a parallel launch (the SMC propagation phase),
// provided no two concurrent operations write the same parent slot and a
// batch never chains dependent combines (a combine's parent must not be
// another queued combine's child). Root ops may read slots written by the
// same batch's combines or tip inits. flush(), resizeSlots() and
// copySlot() are serial-context only.
//
// Execution counters (flushes, combine ops, matrices requested vs
// computed) live in the metrics registry (obs/metrics.h, lik.* taxonomy).
// Distinct transition matrices are counted per (branch length, rate
// category) pair actually exponentiated, so lik.matrices_requested vs
// lik.matrices_computed is the dedup hit-rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "util/aligned.h"
#include "util/error.h"
#include "util/matrix4.h"

namespace mpcgs {

/// The benchmark program (perfbench/) names `LikBackendKind::Batched`,
/// `SmcOptions::backend` and `makeLikelihoodBackend(kind, lik)`; these
/// names exist only for it. There is one backend, so nothing reads the kind.
enum class LikBackendKind { Batched };

class LikelihoodBackend {
  public:
    /// Opaque handle to one backend-owned partials buffer (conditional
    /// likelihood vectors of one live subtree root).
    using Slot = std::uint32_t;

    /// Borrows the pattern data, substitution model and rate categories of
    /// `lik`, which must outlive the backend.
    explicit LikelihoodBackend(const DataLikelihood& lik);

    const std::vector<std::string>& tipNames() const {
        return patterns_.sequenceNames();
    }

    // --- slot pool ---------------------------------------------------------
    /// Make `n` slots available (contents unspecified; grow-only storage,
    /// so shrinking or re-requesting a fitting size never reallocates).
    void resizeSlots(std::size_t n);

    // --- operation queue ---------------------------------------------------
    void tipInit(Slot dst, int tip) { tipOps_[claim(nTips_, tipOps_.size())] = {dst, tip}; }
    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB) {
        combineOps_[claim(nCombines_, combineOps_.size())] = {
            parent, childA, childB, lenA, lenB, 0, 0};
    }
    void rootLogLik(Slot slot, double* out) {
        rootOps_[claim(nRoots_, rootOps_.size())] = {slot, out};
    }
    /// Execute everything queued since the last flush; on return all
    /// enqueued results are visible. Uses `pool` for the batch launches
    /// (nullptr = serial).
    void flush(ThreadPool* pool);

    // --- state management (resampling, diagnostics, tests) -----------------
    /// Copy one slot's content onto another (no-op when dst == src).
    void copySlot(Slot dst, Slot src);
    /// Raw views of a slot's conditional vectors / per-pattern log scale
    /// (valid until the next resizeSlots).
    std::span<const double> slotData(Slot slot) const { return {dataPtr(slot), dataLen_}; }
    std::span<const double> slotScale(Slot slot) const {
        return {scalePtr(slot), patterns_.patternCount()};
    }

  private:
    struct TipOp {
        Slot dst;
        int tip;
    };
    struct CombineOp {
        Slot parent, childA, childB;
        double lenA, lenB;
        std::uint32_t matA, matB;  ///< distinct-length indices, filled at flush
    };
    struct RootOp {
        Slot slot;
        double* out;
    };

    static std::size_t claim(std::atomic<std::size_t>& counter, std::size_t cap) {
        const std::size_t i = counter.fetch_add(1, std::memory_order_relaxed);
        if (i >= cap)
            throw InvariantError("likelihood batch overflows its slot-sized queue");
        return i;
    }

    double* dataPtr(Slot s) { return data_.data() + s * dataStride_; }
    const double* dataPtr(Slot s) const { return data_.data() + s * dataStride_; }
    double* scalePtr(Slot s) { return scale_.data() + s * scaleStride_; }
    const double* scalePtr(Slot s) const { return scale_.data() + s * scaleStride_; }

    const SitePatterns& patterns_;
    const SubstModel& model_;
    const BaseFreqs& pi_;
    const RateCategories& rates_;
    std::size_t dataLen_ = 0;     ///< doubles of one slot's vectors (C*P*4)
    std::size_t dataStride_ = 0;  ///< dataLen_ rounded up to the cache line
    std::size_t scaleStride_ = 0;
    /// One 64-byte-aligned grow-only slab of conditional vectors plus one
    /// of per-pattern log scales, slot-strided.
    AlignedDoubles data_;
    AlignedDoubles scale_;

    // At most one op of each kind per slot per batch (a slot is written
    // once per generation), so the slot count bounds every queue, and a
    // batch holds at most two distinct lengths per combine. All of these
    // are sized by resizeSlots, so flush() allocates nothing of its own.
    std::vector<TipOp> tipOps_;
    std::vector<CombineOp> combineOps_;
    std::vector<RootOp> rootOps_;
    std::atomic<std::size_t> nTips_{0}, nCombines_{0}, nRoots_{0};
    std::vector<std::uint64_t> lenKeys_;  ///< sorted distinct length bits
    std::vector<Matrix4> matStore_;       ///< [distinct d][category c] = d*C + c
};

/// A backend over the pattern data / substitution model / rate categories
/// of `lik` (which must outlive the backend). `kind` has one value.
std::unique_ptr<LikelihoodBackend> makeLikelihoodBackend(LikBackendKind kind,
                                                         const DataLikelihood& lik);

}  // namespace mpcgs
