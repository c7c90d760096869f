// The traced run: per-layer metrics from the benchmark's own timed calls
// into each layer's public functions, registry counts of the workload's
// estimate, layer self times, tracing overhead and a Chrome trace.
#pragma once

#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

void runTraced(const Workload& wl, const std::string& dataPath, const std::string& dir,
               Report& rep, Ops& ops);

}  // namespace perfbench
