// Numeric guardrails at the sampler/SMC boundary.
//
// A non-finite log-posterior, importance weight, or marginal-likelihood
// estimate is never a recoverable state for an MCMC or SMC run — but a
// bare "nan" exception is useless for diagnosis. These guards dump the
// offending state (which boundary, theta, seed, tick, chain/particle,
// genealogy digest) to a diagnostic file first, then raise NumericError,
// which the tools map to kExitNumericFault. All guards run in serial
// sections only (after a parallel region completes), so the dump reflects
// one consistent state and injection via the numeric fail points
// (mcmc.logpost, smc.weight, smc.collapse, pmmh.logz) stays
// deterministic.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace mpcgs {

class Genealogy;

/// Everything the dump file records about one numeric fault.
struct NumericFaultContext {
    std::string where;        ///< boundary name, e.g. "pmmh.logz"
    double value = 0.0;       ///< the offending value
    double theta = 0.0;       ///< driving theta at the fault
    std::uint64_t seed = 0;   ///< run seed (reproduction handle)
    std::uint64_t tick = 0;   ///< tick / event index at the fault
    std::uint32_t chain = 0;  ///< chain or particle-slot index
    std::string genealogy;    ///< genealogySummary() of the offending tree
    std::string detail;       ///< free-form extra diagnostic lines
};

/// One-line structural digest of a genealogy (tip count, root height,
/// total branch length) — enough to correlate a fault with traces without
/// serializing the whole tree.
std::string genealogySummary(const Genealogy& g);

/// Write `ctx` to a diagnostic file in $MPCGS_FAULT_DIR (or the working
/// directory) and throw NumericError naming that file. Never returns.
[[noreturn]] void raiseNumericFault(const NumericFaultContext& ctx);

}  // namespace mpcgs
