/**
 * @file
 * A miniature IPC-1: run the eight instruction-prefetcher submissions on
 * a handful of front-end-bound synthetic traces under the championship
 * configuration (coupled front-end, ideal target predictor, 50% warm-up)
 * and print the ranking -- on competition-style traces and on traces
 * fixed by the improved converter.
 *
 * Usage:  prefetch_championship [traces] [length]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "experiments/figures.hh"
#include "par/thread_pool.hh"
#include "synth/generator.hh"

int
main(int argc, char **argv)
{
    using namespace trb;

    std::size_t ntraces =
        argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 6;
    std::uint64_t length =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 120000;

    // Index-addressed rows: the ranking is identical for any TRB_JOBS.
    std::vector<Ipc1Row> rows(ntraces);
    par::ThreadPool::global().parallelFor(ntraces, [&](std::size_t i) {
        WorkloadParams params = serverParams(1000 + i);
        params.numFunctions = 400 + 150 * static_cast<unsigned>(i);
        rows[i] = ipc1Row(TraceGenerator(params).generate(length));
    });
    for (std::size_t i = 0; i < ntraces; ++i)
        for (int v = 0; v < 2; ++v)
            std::printf("trace %zu (%s): baseline IPC %.3f, L1I MPKI %.1f\n",
                        i, v ? "fixed" : "competition", rows[i].base[v].ipc(),
                        rows[i].base[v].l1iMpki());

    const TableThree table = rankPrefetchers(rows);
    for (int v = 0; v < 2; ++v) {
        const std::vector<PrefetcherScore> &rank = table.ranking[v];
        std::printf("\n=== %s traces ===\n", v ? "Fixed" : "Competition");
        for (std::size_t r = 0; r < rank.size(); ++r)
            std::printf("%zu. %-10s %.4f\n", r + 1,
                        rank[r].name.c_str(), rank[r].speedup);
    }
    return 0;
}
