/**
 * @file
 * The out-of-order core model: a ChampSim-class trace-driven scheduler.
 *
 * The model walks the ChampSim trace once, computing per-instruction
 * fetch, dispatch, issue, completion and retirement cycles under the
 * configured structural constraints:
 *
 *  - branch-predictor-directed fetch with BTB/RAS/ITTAGE/direction
 *    predictors and redirect stalls at decode (direct-target misses) or
 *    execution (direction / indirect-target mispredictions);
 *  - an optional decoupled front-end whose FTQ lookahead issues
 *    fetch-directed L1I prefetches and feeds the pluggable instruction
 *    prefetcher;
 *  - register ready-times for true dependencies (the mechanism through
 *    which the paper's base-update / branch-regs / flag-reg effects
 *    materialise);
 *  - ROB occupancy, fetch/issue/retire widths;
 *  - loads through the latency-aware memory hierarchy, stores writing at
 *    retirement.
 *
 * Like ChampSim, the model derives everything from the 64-byte records:
 * an instruction is a load/store iff it has memory operands and its
 * branch type is deduced from register usage (original or patched rules).
 */

#ifndef TRB_PIPELINE_O3CORE_HH
#define TRB_PIPELINE_O3CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "ipref/instr_prefetcher.hh"
#include "obs/pipeline_trace.hh"
#include "resil/cancel.hh"
#include "pipeline/core_params.hh"
#include "pipeline/sim_stats.hh"
#include "trace/branch_deduce.hh"
#include "trace/champsim_trace.hh"
#include "uarch/btb.hh"
#include "uarch/direction_pred.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace trb
{

/** The core model.  One instance simulates one trace run. */
class O3Core
{
  public:
    /**
     * @param params core configuration
     * @param ipref optional instruction prefetcher (not owned may be
     *              null); receives front-end events during the run
     */
    explicit O3Core(const CoreParams &params,
                    InstrPrefetcher *ipref = nullptr);

    /**
     * Simulate the trace.  Takes a non-owning view, so the record array
     * can live in a ChampSimTrace vector or an mmap'd store artifact;
     * a ChampSimTrace converts implicitly.
     * @param warmup leading instructions excluded from the statistics
     * @return measurement-phase statistics
     */
    SimStats run(ChampSimView trace, std::uint64_t warmup = 0);

    /**
     * Attach (or detach with nullptr) a pipeline event tracer: every
     * retired instruction's lifecycle stamps are recorded into it.  The
     * core only pays a pointer test per instruction when detached.
     */
    void setTracer(obs::PipelineTracer *tracer) { tracer_ = tracer; }

    /**
     * Attach (or detach with nullptr) a cancellation token: run() polls
     * it every kCancelPollInterval retired instructions (one relaxed
     * load on-path) and bails out by throwing resil::CancelledError
     * when it has fired.  Detached, the per-poll cost is one pointer
     * test -- the same pattern as setTracer().  The partial run's
     * statistics are discarded with the exception; cancellation never
     * produces (or memoizes) a truncated result.
     */
    void
    setCancelToken(const resil::CancelToken *token)
    {
        cancel_ = token;
    }

    /** Instructions between cancellation polls (a power of two). */
    static constexpr std::size_t kCancelPollInterval = 4096;

  private:
    /** Port the instruction prefetcher issues fills through. */
    class Port : public PrefetchPort
    {
      public:
        explicit Port(MemoryHierarchy &mem) : mem_(mem) {}

        bool
        issue(Addr addr, Cycle now) override
        {
            return mem_.prefetchInstr(addr, now);
        }

        bool
        present(Addr addr, Cycle now) const override
        {
            return mem_.probeL1I(addr, now);
        }

      private:
        MemoryHierarchy &mem_;
    };

    /** Outcome of predicting one branch at fetch. */
    struct BranchOutcome
    {
        bool directionMisp = false;
        bool targetMisp = false;
        bool decodeResolvable = false;  //!< direct target known at decode
    };

    BranchOutcome predictBranch(const ChampSimRecord &rec, BranchType type,
                                bool taken, Addr actual_target);

    /** Snapshot the raw counters (for warmup subtraction). */
    SimStats snapshot() const;

    CoreParams params_;
    MemoryHierarchy mem_;
    Port port_;
    std::unique_ptr<DirectionPredictor> dir_;
    Ittage ittage_;
    Btb btb_;
    Ras ras_;
    InstrPrefetcher *ipref_;
    obs::PipelineTracer *tracer_ = nullptr;
    const resil::CancelToken *cancel_ = nullptr;

    // Raw cumulative counters (snapshotted at the warmup boundary).
    SimStats raw_;
};

} // namespace trb

#endif // TRB_PIPELINE_O3CORE_HH
