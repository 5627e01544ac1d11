/**
 * @file
 * Table 3: the IPC-1 championship re-ranking.  The eight submitted
 * instruction prefetchers are scored by geometric-mean speedup over the
 * no-prefetcher baseline on the IPC-1 configuration (coupled front-end,
 * ideal target predictor, 50%% warm-up), once on the "competition"
 * traces (original conversion) and once on the fixed traces (all
 * improvements except mem-footprint, per the paper's footnote 4).
 * tableThree() computes it.
 *
 * Paper shape to reproduce: larger speedups on the fixed traces and a
 * mid-pack reshuffle of the ranking.
 */

#include <cstdio>

#include "common/env.hh"
#include "experiments/bench_main.hh"
#include "experiments/figures.hh"

int
main()
{
    using namespace trb;

    // The title carries only one newline historically, so it is printed
    // by the body; runBench gets an empty title.
    return runBench("tab3", "", [&] {
    const TableThree table =
        tableThree(traceLengthFromEnv(kTableThreeTraceLength));
    const char *set_names[2] = {"Competition traces", "Fixed traces"};

    std::printf("Table 3: IPC-1 ranking, geomean speedup over "
                "no-prefetcher\n");
    for (int v = 0; v < 2; ++v) {
        const std::vector<PrefetcherScore> &ranking = table.ranking[v];
        std::printf("\n%s\n%-6s %-12s %-8s\n", set_names[v], "rank",
                    "prefetcher", "speedup");
        for (std::size_t r = 0; r < ranking.size(); ++r)
            std::printf("%-6zu %-12s %.4f\n", r + 1,
                        ranking[r].name.c_str(), ranking[r].speedup);
    }
    });
}
