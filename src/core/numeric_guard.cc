#include "core/numeric_guard.h"

#include <cstdio>
#include <cstdlib>

#include "phylo/tree.h"

namespace mpcgs {

std::string genealogySummary(const Genealogy& g) {
    double totalBranch = 0.0;
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        const TreeNode& n = g.node(id);
        if (n.parent != kNoNode) totalBranch += g.node(n.parent).time - n.time;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tips=%d rootHeight=%.17g totalBranchLength=%.17g",
                  g.tipCount(), g.node(g.root()).time, totalBranch);
    return buf;
}

void raiseNumericFault(const NumericFaultContext& ctx) {
    const char* dir = std::getenv("MPCGS_FAULT_DIR");
    std::string path = (dir && *dir) ? std::string(dir) : std::string(".");
    path += "/mpcgs_numeric_fault_" + ctx.where + ".txt";

    std::string note;
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "mpcgs numeric fault dump\n");
        std::fprintf(f, "boundary: %s\n", ctx.where.c_str());
        std::fprintf(f, "value: %.17g\n", ctx.value);
        std::fprintf(f, "theta: %.17g\n", ctx.theta);
        std::fprintf(f, "seed: %llu\n", static_cast<unsigned long long>(ctx.seed));
        std::fprintf(f, "tick: %llu\n", static_cast<unsigned long long>(ctx.tick));
        std::fprintf(f, "chain: %u\n", ctx.chain);
        if (!ctx.genealogy.empty())
            std::fprintf(f, "genealogy: %s\n", ctx.genealogy.c_str());
        if (!ctx.detail.empty()) std::fprintf(f, "%s\n", ctx.detail.c_str());
        std::fclose(f);
        note = "state dumped to '" + path + "'";
    } else {
        note = "state dump to '" + path + "' failed";
    }

    char head[128];
    std::snprintf(head, sizeof head, "non-finite value %.17g at %s (chain %u, tick %llu); ",
                  ctx.value, ctx.where.c_str(), ctx.chain,
                  static_cast<unsigned long long>(ctx.tick));
    throw NumericError(head + note);
}

}  // namespace mpcgs
