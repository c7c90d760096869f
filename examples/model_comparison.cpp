// Study the model mismatch the paper tolerates (§6.1: data generated under
// seq-gen's F84 but inference under Eq. 20's F81): estimate theta with each
// available inference model against F84-generated data.
//
//   $ ./examples/model_comparison [--theta T] [--kappa K]
#include <cstdio>
#include <iostream>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/options.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options cli = Options::parse(argc, argv);
    const double trueTheta = cli.getDouble("theta", 1.0);
    const double kappa = cli.getDouble("kappa", 2.0);

    // Skewed base frequencies make the model differences visible.
    const BaseFreqs pi{0.35, 0.15, 0.2, 0.3};
    Mt19937 rng(77);
    const Genealogy truth = simulateCoalescent(12, trueTheta, rng);
    const auto generator = makeF84(kappa, pi);
    const Alignment data = simulateSequences(truth, *generator, {600, 1.0}, rng);

    ThreadPool pool;
    // theta-hat (MCMC) is the EM maximizer of the sampled relative
    // likelihood; theta-hat (SMC) maximizes the particle-filter marginal
    // likelihood of the SAME data under the SAME model, plus its pooled
    // log marginal likelihood log Zhat at the maximum — the quantity model
    // comparison actually wants (a Bayes factor is a logZ difference).
    Table table({"inference model", "theta-hat (MCMC)", "theta-hat (SMC)", "logZ (SMC)",
                 "note"});
    for (const char* name : {"F81", "JC69", "HKY85", "F84"}) {
        MpcgsOptions opts;
        opts.theta0 = 0.5;
        opts.emIterations = 4;
        opts.samplesPerIteration = 4000;
        opts.gmhSamplesPerSet = 32;
        opts.substModel = name;
        opts.seed = 3;
        const MpcgsResult res = estimateTheta(data, opts, &pool);

        SmcEstimateOptions smcOpts;
        smcOpts.theta0 = 0.5;
        smcOpts.smc.particles = 1024;
        smcOpts.substModel = name;
        smcOpts.seed = 3;
        const SmcEstimateResult smc =
            estimateThetaSmc(Dataset::single(data), smcOpts, &pool);

        std::string note;
        if (std::string(name) == "F81") note = "paper's Eq. 20 kernel";
        if (std::string(name) == "F84") note = "matches the generator";
        table.addRow({name, Table::num(res.theta), Table::num(smc.theta),
                      Table::num(smc.logZAtMax, 2), note});
    }
    std::printf("data generated under F84 (kappa=%.1f), true theta = %.2f\n\n", kappa,
                trueTheta);
    table.print(std::cout);
    std::printf("\nAll models recover theta to the same order; the residual spread is\n"
                "the mismatch the thesis notes between its F81 kernel and seq-gen's F84.\n"
                "The MCMC and SMC columns cross-validate each other, and the logZ\n"
                "column ranks the models directly: the highest marginal likelihood\n"
                "should belong to the generator's own family.\n");
    return 0;
}
