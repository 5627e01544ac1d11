/**
 * @file
 * Figure 3: slowdown caused by the branch-regs and flag-reg improvements
 * versus the trace's branch MPKI.  Traces are sorted by increasing
 * baseline branch MPKI (the paper's dashed line); the expected shape is
 * slowdown growing with MPKI.  figureThree() computes it.
 */

#include <cstdio>

#include "common/env.hh"
#include "experiments/bench_main.hh"
#include "experiments/figures.hh"

int
main()
{
    using namespace trb;

    return runBench("fig3",
                    "Figure 3: slowdown of branch-regs and flag-reg vs "
                    "branch MPKI (sorted by MPKI)",
                    [&] {
    const FigureThree fig =
        figureThree(traceLengthFromEnv(kFigureTraceLength));

    std::printf("%-18s %10s %15s %15s\n", "trace", "brMPKI",
                "branch-regs(%)", "flag-reg(%)");
    for (const FigureThree::Row &r : fig.rows)
        std::printf("%-18s %10.2f %+15.2f %+15.2f\n", r.name.c_str(),
                    r.branchMpki, r.branchRegsSlowdown, r.flagRegSlowdown);
    if (!fig.rows.empty())
        std::printf("\nflag-reg slowdown, lowest-MPKI quartile: %+0.2f%%  "
                    "highest-MPKI quartile: %+0.2f%%\n",
                    fig.flagRegSlowdown.lowest, fig.flagRegSlowdown.highest);
                    });
}
