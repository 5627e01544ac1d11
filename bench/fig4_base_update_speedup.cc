/**
 * @file
 * Figure 4: speedup of the base-update improvement versus the fraction
 * of instructions that are writeback (base-updating) loads.  Traces are
 * sorted by that fraction (the paper's dashed line); the expected shape
 * is speedup growing with the fraction.  figureFour() computes it.
 */

#include <cstdio>

#include "common/env.hh"
#include "experiments/bench_main.hh"
#include "experiments/figures.hh"

int
main()
{
    using namespace trb;

    return runBench("fig4",
                    "Figure 4: base-update speedup vs writeback-load density "
                    "(sorted by density)",
                    [&] {
    const FigureFour fig = figureFour(traceLengthFromEnv(kFigureTraceLength));

    std::printf("%-18s %14s %12s\n", "trace", "wb-loads(%)",
                "speedup(%)");
    for (const FigureFour::Row &r : fig.rows)
        std::printf("%-18s %14.2f %+12.2f\n", r.name.c_str(), r.wbLoadPct,
                    r.speedup);
    if (!fig.rows.empty())
        std::printf("\nspeedup, lowest-density quartile: %+0.2f%%  "
                    "highest-density quartile: %+0.2f%%\n",
                    fig.speedup.lowest, fig.speedup.highest);
                    });
}
