#include "core/structured_sampler.h"

#include "mcmc/checkpoint.h"
#include "util/error.h"

namespace mpcgs {

void StructuredSummarySink::consume(const Genealogy&, const SampleTag&) {
    throw InvariantError("StructuredSummarySink: received an unlabelled sample");
}

void StructuredSummarySink::save(CheckpointWriter& w) const {
    w.u32(static_cast<std::uint32_t>(demeCount_));
    ChainMajorSink::save(w);
}

void StructuredSummarySink::load(CheckpointReader& r) {
    demeCount_ = static_cast<int>(r.u32());
    if (demeCount_ < 1 || demeCount_ > 64)
        throw CheckpointError("corrupt snapshot: implausible deme count");
    ChainMajorSink::load(r);
}

void StructuredSummarySink::writeSummary(CheckpointWriter& w,
                                         const StructuredSummary& s) const {
    w.doubles(s.coal);
    w.doubles(s.W);
    w.doubles(s.mig);
    w.doubles(s.U);
}

StructuredSummary StructuredSummarySink::readSummary(CheckpointReader& r) const {
    const auto Ku = static_cast<std::size_t>(demeCount_);
    StructuredSummary s;
    s.coal = r.doubles();
    s.W = r.doubles();
    s.mig = r.doubles();
    s.U = r.doubles();
    if (s.coal.size() != Ku || s.W.size() != Ku || s.U.size() != Ku || s.mig.size() != Ku * Ku)
        throw CheckpointError("corrupt snapshot: summary shape mismatch");
    return s;
}

std::size_t StructuredSummarySink::summaryBytes() const {
    const auto Ku = static_cast<std::size_t>(demeCount_);
    return 4 * sizeof(std::uint64_t) + (3 * Ku + Ku * Ku) * sizeof(double);
}

}  // namespace mpcgs
