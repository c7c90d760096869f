// Shared per-pattern kernels of the partial-forest likelihood path.
//
// The likelihood backend (lik/lik_backend.h) and the ForestEvaluator
// reference (lik/forest_eval.h) execute the SAME math through these
// functions: they are deliberately compiled once, out of line, so the
// combine / rescale / root-marginalization arithmetic has a single
// machine-code definition. That is what makes the backend-vs-oracle
// agreement *bitwise* rather than merely approximate — the backend's
// cloud-wide batched execution (split into pattern blocks, on any pool)
// and the evaluator's one-operation-at-a-time execution run the identical
// instruction sequence per pattern, only scheduled differently.
//
// Layout convention (inherited from SubtreePartials): a partials buffer
// holds data[(c * P + p) * 4 + x] for rate category c of C, site pattern p
// of P and nucleotide x, plus a per-pattern log rescale factor scaleLog[p]
// shared by all categories.
#pragma once

#include <cstddef>

#include "lik/rate_model.h"
#include "lik/site_pattern.h"
#include "seq/nucleotide.h"
#include "util/matrix4.h"

namespace mpcgs {

/// Fill one tip's conditional vectors over patterns [p0, p0+n): indicator
/// columns (all-ones for unknown sites) for every category, zero scale.
/// `data`/`scaleLog` are the buffer base pointers (full P x C slot).
void forestTipInitRange(const SitePatterns& patterns, int tip, double* data,
                        double* scaleLog, std::size_t P, std::size_t C,
                        std::size_t p0, std::size_t n);

/// Eq. 19 combine for ONE rate category over patterns [p0, p0+n):
/// vo = (Pa va) .* (Pb vb) elementwise over the 4 states. The pointers are
/// already offset to the category's pattern-0 vector; the kernel indexes
/// (p * 4 + x) relative to them.
void forestCombineRange(const Matrix4& pa, const Matrix4& pb, const double* va,
                        const double* vb, double* vo, std::size_t p0, std::size_t n);

/// Per-pattern max rescale over patterns [p0, p0+n) after a combine: the
/// max runs across all C categories of the pattern (common factor, so the
/// category average at the root stays exact), and the children's carried
/// log scales are summed in. `data`/`scaleLog` are the parent slot's base
/// pointers; `scaleA`/`scaleB` the children's scale base pointers.
void forestRescaleRange(double* data, double* scaleLog, const double* scaleA,
                        const double* scaleB, std::size_t P, std::size_t C,
                        std::size_t p0, std::size_t n);

/// Root factor of the forest likelihood for one slot, folded serially in
/// pattern order (the fold order is part of the bitwise contract):
/// sum_p w_p * [ log( sum_c v_c sum_X pi_X L_p,c(X) ) + scaleLog_p ].
double forestRootLogLik(const double* data, const double* scaleLog,
                        const SitePatterns& patterns, const BaseFreqs& pi,
                        const RateCategories& rates);

}  // namespace mpcgs
