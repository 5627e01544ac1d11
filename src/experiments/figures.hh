/**
 * @file
 * The one computation of each paper figure that two programs read:
 * Figures 3-5 over the CVP-1 public suite under modernConfig(), and
 * Table 3 over the IPC-1 suite under ipc1Config(), at a given trace
 * length.  Each function returns the rows and summary its bench prints,
 * and its PaperDirections gate in tests/test_experiments.cc asserts the
 * paper's shape on the same numbers.  Rows come back in the figure's
 * order, quarantined traces dropped (see forEachTrace()), bit-identical
 * for any TRB_JOBS; under TRB_STORE one digest per trace serves its
 * row's simulations.
 */

#ifndef TRB_EXPERIMENTS_FIGURES_HH
#define TRB_EXPERIMENTS_FIGURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace trb
{

/** The benches' default trace lengths, at which the gates run too;
 *  Table 3's temporal prefetchers need longer traces for history reuse. */
constexpr std::uint64_t kFigureTraceLength = 60000;
constexpr std::uint64_t kTableThreeTraceLength = 200000;

/** Mean of a column over the first and the last quarter of the rows,
 *  summed and then divided, as the benches print it. */
struct QuartileMeans
{
    double lowest = 0.0, highest = 0.0;
};

/** Figure 3, by increasing baseline branch MPKI; slowdowns in percent. */
struct FigureThree
{
    struct Row
    {
        std::string name;
        double branchMpki, branchRegsSlowdown, flagRegSlowdown;
    };
    std::vector<Row> rows;
    QuartileMeans flagRegSlowdown;
};

FigureThree figureThree(std::uint64_t length);

/** Figure 4, by increasing writeback-load share; both in percent. */
struct FigureFour
{
    struct Row
    {
        std::string name;
        double wbLoadPct, speedup;
    };
    std::vector<Row> rows;
    QuartileMeans speedup;
};

FigureFour figureFour(std::uint64_t length);

/** Figure 5, by decreasing return MPKI under the original conversion;
 *  the call-stack fix's speedup in percent.  Its bench prints the first
 *  20 rows and counts the rest. */
struct FigureFive
{
    struct Row
    {
        std::string name;
        double rasMpkiOrig, rasMpkiFixed, speedup;
    };
    std::vector<Row> rows;
};

FigureFive figureFive(std::uint64_t length);

/**
 * One trace's Table 3 cells, with 50% warm-up: on the competition ([0],
 * kImpNone) and the fixed ([1], kIpc1Imps) conversion, the
 * no-prefetcher stats and each prefetcher's IPC over them, indexed like
 * ipc1PrefetcherNames().
 */
struct Ipc1Row
{
    SimStats base[2];
    std::vector<double> speedup[2];
};

Ipc1Row ipc1Row(const CvpTrace &cvp);

struct PrefetcherScore
{
    std::string name;
    double speedup;  ///< geomean over the traces
};

/** Table 3: the traces that gave rows, and the prefetchers ranked best
 *  first on the competition ([0]) and the fixed ([1]) traces. */
struct TableThree
{
    std::size_t traces = 0;
    std::vector<PrefetcherScore> ranking[2];
};

TableThree rankPrefetchers(const std::vector<Ipc1Row> &rows);
TableThree tableThree(std::uint64_t length);

} // namespace trb

#endif // TRB_EXPERIMENTS_FIGURES_HH
