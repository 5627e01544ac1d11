/**
 * @file
 * Figure 5: the call-stack fix.  For the traces with the highest return
 * (RAS) target MPKI under the original converter, show the return MPKI
 * before and after the fix and the resulting IPC speedup.  Paper shape:
 * an order-of-magnitude return-MPKI drop on the affected subset and IPC
 * gains of several percent.  figureFive() computes it.
 */

#include <algorithm>
#include <cstdio>

#include "common/env.hh"
#include "experiments/bench_main.hh"
#include "experiments/figures.hh"

int
main()
{
    using namespace trb;

    return runBench("fig5",
                    "Figure 5: call-stack fix on the highest return-MPKI "
                    "traces (sorted descending)",
                    [&] {
    const FigureFive fig = figureFive(traceLengthFromEnv(kFigureTraceLength));

    std::printf("%-18s %14s %14s %12s\n", "trace", "retMPKI(orig)",
                "retMPKI(fix)", "speedup(%)");
    std::size_t shown = std::min<std::size_t>(20, fig.rows.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const FigureFive::Row &r = fig.rows[i];
        std::printf("%-18s %14.2f %14.2f %+12.2f\n", r.name.c_str(),
                    r.rasMpkiOrig, r.rasMpkiFixed, r.speedup);
    }
    std::printf("... (%zu further traces with return MPKI %.2f or "
                "below)\n",
                fig.rows.size() - shown,
                shown < fig.rows.size() ? fig.rows[shown].rasMpkiOrig : 0.0);
                    });
}
