/**
 * @file
 * Experiment harness shared by the bench binaries: suite iteration with
 * per-trace generation (trace-major, so memory stays bounded) and the
 * improvement-set sweep of Figures 1-2.  figures.hh computes the
 * figures that two programs read on top of it.
 *
 * Since PR 2 the harness is parallel: forEachTrace() dispatches one
 * task per trace onto trb::par::ThreadPool::global() (TRB_JOBS threads,
 * default hardware_concurrency) and runImprovementSweep() further
 * splits each trace into one task per improvement set.  Results are
 * deterministic by construction -- every trace is generated from its
 * own spec seed and every result lands in an index-addressed slot, so
 * the output is bit-identical to the serial run (TRB_JOBS=1) regardless
 * of worker count or schedule.  See docs/parallelism.md for the
 * contract callers must follow.
 */

#ifndef TRB_EXPERIMENTS_EXPERIMENT_HH
#define TRB_EXPERIMENTS_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "convert/cvp2champsim.hh"
#include "pipeline/sim_stats.hh"
#include "resil/failure.hh"
#include "sim/simulator.hh"
#include "synth/params.hh"

namespace trb
{

/** The named improvement sets of Figures 1 and 2, in plot order. */
struct NamedSet
{
    const char *name;
    ImprovementSet set;
};

/** mem-regs .. All, the nine series the paper's Figure 1 shows. */
const std::vector<NamedSet> &figureOneSets();

/**
 * Number of suite entries forEachTrace() will visit after applying
 * TRB_SUITE_SCALE -- use it to pre-size the index-addressed result
 * arrays a parallel callback writes into.
 */
std::size_t suiteCount(const std::vector<TraceSpec> &suite);

/**
 * Iterate a suite trace-major: generate each CVP-1 trace once, hand it
 * to the callback, then discard it.  Honours TRB_SUITE_SCALE by
 * dropping a suffix of the suite.
 *
 * Parallelism contract: traces are dispatched onto the global worker
 * pool, so @p fn may run concurrently for *different* indices (each
 * index exactly once).  Callbacks must therefore write their results
 * into per-index slots (pre-size with suiteCount()) rather than
 * appending to shared containers, and must not print in trace order.
 * With TRB_JOBS=1 the callback runs inline in index order -- the exact
 * serial behaviour this harness had before parallelisation.
 *
 * Failure policy (PR 4): a trace that cannot be produced -- fault
 * injection active, I/O failed -- does not kill the suite.  Transient
 * IoErrors are retried with bounded exponential backoff (TRB_RETRIES);
 * anything else quarantines the trace into @p failures (the global
 * FailureReport when null), its callback is skipped, its result slot is
 * left untouched, and the suite continues.  A warning summarising the
 * quarantines is logged at the end.
 */
void forEachTrace(
    const std::vector<TraceSpec> &suite,
    const std::function<void(std::size_t, const TraceSpec &,
                             const CvpTrace &)> &fn,
    resil::FailureReport *failures = nullptr);

/** Per-trace outcome of one improvement set vs the original converter. */
struct DeltaSeries
{
    std::string setName;
    /**
     * improved IPC / baseline IPC per trace; NaN marks a quarantined
     * trace whose cell was never computed.  The aggregate helpers skip
     * non-finite entries.
     */
    std::vector<double> ratio;

    double geomeanDeltaPercent() const;
    unsigned countAbove(double percent) const;
};

/**
 * Run the full Figure 1/2 sweep: for every trace, simulate the original
 * conversion and each named set, collecting IPC ratios.
 *
 * Dispatches one (trace x improvement-set) task per pool slot; the
 * per-trace ratios are merged back in trace order, so the returned
 * series (and @p baseline_out) are bit-identical for every TRB_JOBS
 * value.
 *
 * A cell whose set holds only fixes that are inert for its trace (see
 * inertImprovements(): call-stack on traces without BLR X30, flag-reg
 * on traces without a destination-less compare) converts to the trace's
 * No_imp records, so its ratio is answered from the baseline -- exactly
 * base.ipc() / base.ipc() -- without converting, simulating or looking
 * up the store; the counter sweep.cells_from_baseline counts them.
 * Under TRB_LINT every cell still converts, so lint sees every stream.
 *
 * Failure policy and resume: quarantined traces (see forEachTrace())
 * leave NaN ratios and default baseline stats; the sweep continues.
 * Under TRB_STORE every simulated cell's SimStats are published as
 * they complete, so a rerun of a killed sweep serves the finished cells
 * back from the store, bit-identically, and simulates only the rest.
 * The store key covers the trace content, the improvement set and the
 * whole core configuration, so a sweep never resumes from another's
 * cells.
 *
 * @param baseline_out optional per-trace baseline stats sink, resized
 *        to the visited-trace count and filled by trace index
 * @param failures quarantine sink; the global FailureReport when null
 */
std::vector<DeltaSeries> runImprovementSweep(
    const std::vector<TraceSpec> &suite, const std::vector<NamedSet> &sets,
    const CoreParams &params, std::vector<SimStats> *baseline_out = nullptr,
    resil::FailureReport *failures = nullptr);

/** Fraction of CVP-1 instructions that are writeback (base-update)
 *  loads, the x-axis of Figure 4. */
double writebackLoadFraction(const CvpTrace &trace);

} // namespace trb

#endif // TRB_EXPERIMENTS_EXPERIMENT_HH
