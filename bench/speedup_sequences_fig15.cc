// Experiment E3 — Table 3 / Fig 15: speedup vs number of sequences. Paper
// sweep: n in {12, 24, 36, 48, 60, 84, 108, 132} at 200 bp; paper speedups
// {3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83}.
//
// Shape criterion: flat-to-slightly-declining speedup as n grows (larger
// trees mean more serial per-proposal overhead relative to the
// parallelizable per-site work).
//
//   --paper : full sweep to n = 132 with more samples (slow)
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/workload.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);

    const std::vector<int> sweep = cfg.paperScale
                                       ? std::vector<int>{12, 24, 36, 48, 60, 84, 108, 132}
                                       : std::vector<int>{12, 24, 36, 48, 60};
    const std::vector<double> paperSpeedup{3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83};
    const std::size_t samples = cfg.paperScale ? 20000 : 2500;

    printHeader("Table 3 / Fig 15: speedup vs number of sequences");
    std::printf("200 bp, %zu samples, %u threads\n\n", samples, cfg.threads);

    Table table({"# sequences", "serial MH (s)", "GMH (s)", "speedup", "paper speedup"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Alignment data = makeDataset(sweep[i], 200, 1.0, 100 + static_cast<unsigned>(i));
        const SpeedupPoint p = measureSpeedup(data, samples, cfg.threads);
        table.addRow({Table::integer(sweep[i]), Table::num(p.baselineSeconds, 3),
                      Table::num(p.gmhSeconds, 3), Table::num(p.speedup(), 2),
                      Table::num(paperSpeedup[i], 2)});
    }
    table.print(std::cout);
    std::printf("\nShape criterion (paper, Fig 15): speedup flat-to-declining with n.\n");
    return 0;
}
