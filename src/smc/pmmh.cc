#include "smc/pmmh.h"

#include <cmath>
#include <limits>

#include "core/numeric_guard.h"
#include "mcmc/checkpoint.h"
#include "rng/splitmix.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {

namespace {
/// Salt decorrelating the pass-seed families from the chain RNG streams
/// (both derive from the same run seed).
constexpr std::uint64_t kPassSalt = 0x50534D4350534D43ull;  // "PSMCPSMC"
}  // namespace

void validatePmmhOptions(const PmmhOptions& opts) {
    if (opts.chains == 0) throw ConfigError("pmmh: need >= 1 chain");
    if (opts.proposalSigma <= 0.0)
        throw ConfigError("pmmh: proposal sigma must be positive");
    if (!(opts.thetaMin > 0.0) || !(opts.thetaMax > opts.thetaMin))
        throw ConfigError("pmmh: need 0 < thetaMin < thetaMax");
    validateSmcOptions(opts.smc);
}

PmmhSampler::PmmhSampler(const PooledSmcLikelihood& marginal, double thetaInit,
                         const PmmhOptions& opts, ThreadPool* pool)
    : marginal_(marginal),
      opts_(opts),
      pool_(pool),
      chains_(opts.chains) {
    validatePmmhOptions(opts);
    if (thetaInit < opts.thetaMin || thetaInit > opts.thetaMax)
        throw ConfigError("pmmh: initial theta outside the prior support");
    for (std::size_t c = 0; c < chains_.size(); ++c) {
        chains_[c].theta = thetaInit;
        chains_[c].rng = Mt19937::fromSplitMix(splitMix64At(opts.seed, c + 1));
    }
}

std::uint64_t PmmhSampler::passSeed(std::size_t c, std::uint64_t eval) const {
    return splitMix64At(splitMix64At(opts_.seed ^ kPassSalt, c + 1), eval);
}

void PmmhSampler::stepChain(std::size_t c) {
    Chain& ch = chains_[c];
    // Inner SMC passes may use the pool only when the chain axis does not
    // (pool nesting is unsupported — the MultiLocusRun discipline).
    ThreadPool* inner = chains_.size() > 1 ? nullptr : pool_;

    if (!initialized_) {
        const auto passes = marginal_.passes(ch.theta, passSeed(c, ch.evals++), inner);
        ch.logZ = 0.0;
        for (const SmcPassResult& p : passes) ch.logZ += p.logZ;
        ch.tree = passes.front().sampled;
        ch.lastProposalLogZ = ch.logZ;
        ch.lastProposalTheta = ch.theta;
        return;
    }

    const double z = ch.rng.normal();
    const double thetaNew = ch.theta * std::exp(opts_.proposalSigma * z);
    ++ch.steps;
    if (thetaNew < opts_.thetaMin || thetaNew > opts_.thetaMax) return;  // zero prior

    const auto passes = marginal_.passes(thetaNew, passSeed(c, ch.evals++), inner);
    double logZNew = 0.0;
    for (const SmcPassResult& p : passes) logZNew += p.logZ;
    ch.lastProposalLogZ = logZNew;
    ch.lastProposalTheta = thetaNew;

    // 1/theta prior + log-normal walk: prior ratio and proposal Jacobian
    // cancel, leaving the pseudo-marginal likelihood ratio.
    const double logR = logZNew - ch.logZ;
    if (logR >= 0.0 || std::log(ch.rng.uniformPos()) < logR) {
        ch.theta = thetaNew;
        ch.logZ = logZNew;
        ch.tree = passes.front().sampled;
        ++ch.accepted;
    }
}

void PmmhSampler::tick(SampleSink* sink) {
    // The chain axis takes the pool when there is more than one chain;
    // a lone chain leaves it to its inner SMC passes (stepChain).
    forEachIndex(
        chains_.size() > 1 ? pool_ : nullptr, chains_.size(),
        [&](std::size_t c) {
            stepChain(c);
            if (sink && initialized_) {
                Chain& ch = chains_[c];
                sink->consume(ch.tree,
                              SampleTag{static_cast<std::uint32_t>(c), sampleRounds_,
                                        ch.logZ - std::log(ch.theta)});
                ch.trace.push_back(ch.theta);
            }
        },
        /*grain=*/1);
    if (!initialized_) {
        initialized_ = true;
        // An all-sampling run (no burn-in) still emits from tick one: the
        // initialization pass doubles as that tick's sample.
        if (sink) {
            for (std::size_t c = 0; c < chains_.size(); ++c) {
                Chain& ch = chains_[c];
                sink->consume(ch.tree,
                              SampleTag{static_cast<std::uint32_t>(c), sampleRounds_,
                                        ch.logZ - std::log(ch.theta)});
                ch.trace.push_back(ch.theta);
            }
        }
    }
    // Serial guard after the parallel chain round: a non-finite logZhat is
    // a numeric fault, not a silent rejection (the NaN-false acceptance
    // comparison would otherwise swallow it without a trace). The
    // pmmh.logz fail point poisons chain 0's diagnostic cell.
    if (const auto hit = MPCGS_FAILPOINT("pmmh.logz"); hit.fired()) {
        if (hit.action == failpoint::Action::Nan)
            chains_.front().lastProposalLogZ = std::numeric_limits<double>::quiet_NaN();
        else
            throw InjectedFaultError("pmmh.logz");
    }
    for (std::size_t c = 0; c < chains_.size(); ++c) {
        const Chain& ch = chains_[c];
        if (std::isfinite(ch.lastProposalLogZ)) continue;
        NumericFaultContext ctx;
        ctx.where = "pmmh.logz";
        ctx.value = ch.lastProposalLogZ;
        ctx.theta = ch.lastProposalTheta;
        ctx.seed = opts_.seed;
        ctx.tick = sampleRounds_;
        ctx.chain = static_cast<std::uint32_t>(c);
        // The initialization block above always ran by this point, so
        // every chain holds a valid genealogy.
        ctx.genealogy = genealogySummary(ch.tree);
        ctx.detail = "accepted theta: " + std::to_string(ch.theta) +
                     "\naccepted logZ: " + std::to_string(ch.logZ) +
                     "\nsmc passes run by this chain: " + std::to_string(ch.evals);
        raiseNumericFault(ctx);
    }
    if (sink) ++sampleRounds_;
}

SamplerStats PmmhSampler::stats() const {
    SamplerStats s;
    for (const Chain& c : chains_) {
        s.steps += c.steps;
        s.accepted += c.accepted;
    }
    return s;
}

void PmmhSampler::save(CheckpointWriter& w) const {
    w.u32(kPmmhSnapshotTag);
    w.u32(initialized_ ? 1 : 0);
    w.u64(sampleRounds_);
    w.u64(chains_.size());
    for (const Chain& c : chains_) {
        w.f64(c.theta);
        w.f64(c.logZ);
        // An uninitialized chain holds no genealogy yet (tick one runs the
        // theta0 pass); readGenealogy rejects empty trees, so skip it.
        if (initialized_) writeGenealogy(w, c.tree);
        writeRng(w, c.rng);
        w.u64(c.evals);
        w.u64(c.steps);
        w.u64(c.accepted);
        w.doubles(c.trace);
    }
}

void PmmhSampler::load(CheckpointReader& r) {
    if (r.u32() != kPmmhSnapshotTag)
        throw CheckpointError("snapshot section is not a PMMH ('PSMC') payload");
    initialized_ = r.u32() != 0;
    sampleRounds_ = r.u64();
    if (r.u64() != chains_.size())
        throw CheckpointError("PMMH snapshot chain count does not match configuration");
    for (Chain& c : chains_) {
        c.theta = r.f64();
        c.logZ = r.f64();
        if (initialized_) c.tree = readGenealogy(r);
        readRng(r, c.rng);
        c.evals = r.u64();
        c.steps = r.u64();
        c.accepted = r.u64();
        c.trace = r.doubles();
    }
}

}  // namespace mpcgs
