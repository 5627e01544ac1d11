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
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "ipref/instr_prefetcher.hh"
#include "obs/pipeline_trace.hh"
#include "pipeline/branch_tape.hh"
#include "pipeline/core_params.hh"
#include "pipeline/sim_stats.hh"
#include "resil/cancel.hh"
#include "trace/branch_deduce.hh"
#include "trace/champsim_trace.hh"
#include "uarch/direction_pred.hh"

namespace trb
{

/**
 * The core model.  One instance simulates one trace run.
 *
 * Every run is one loop, a template over where its branch answers come
 * from, built four times: run() predicts, runRecording() predicts and
 * writes the answers to a BranchTape, replay() reads them back from one
 * (and builds no predictor), and runTraced() predicts and records each
 * retired instruction's stamps into a PipelineTracer.  The choice is
 * made at compile time, so run() carries no test for the other three.
 */
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
    ~O3Core();

    /**
     * Simulate the trace.  Takes a non-owning view, so the record array
     * can live in a ChampSimTrace vector or an mmap'd store artifact;
     * a ChampSimTrace converts implicitly.
     * @param warmup leading instructions excluded from the statistics
     * @return measurement-phase statistics
     */
    SimStats run(ChampSimView trace, std::uint64_t warmup = 0);

    /** run(), and @p tape is overwritten with every branch's answers. */
    SimStats runRecording(ChampSimView trace, std::uint64_t warmup,
                          BranchTape &tape);

    /**
     * run() with every branch's answer read from @p tape instead of
     * predicted, so no predictor is built or trained.  Bit-identical to
     * run() when the trace's branch stream is the tape's.  Returns
     * nothing -- a partial run whose statistics are discarded -- when
     * @p tape was recorded under other predictor parameters, at the
     * first branch that differs from its entry, and at the end of a
     * trace that left entries unread.  With a prefetcher attached the
     * whole stream is compared before the run starts, so a refused
     * replay has not fed the prefetcher.
     */
    std::optional<SimStats> replay(ChampSimView trace,
                                   std::uint64_t warmup,
                                   const BranchTape &tape);

    /** run(), and every retired instruction's lifecycle stamps are
     *  recorded into @p tracer. */
    SimStats runTraced(ChampSimView trace, std::uint64_t warmup,
                       obs::PipelineTracer &tracer);

    /**
     * Attach (or detach with nullptr) a cancellation token: a run polls
     * it every kCancelPollInterval retired instructions and bails out
     * by throwing resil::CancelledError when it has fired.  A poll is
     * one relaxed load, plus the parent's poll and a clock read when
     * the token has them: this poll is what enforces a token's
     * deadline.  The loop itself only tests the instruction count; the
     * poll is an out-of-line call.  The partial run's statistics are
     * discarded with the exception; cancellation never produces (or
     * memoizes) a truncated result.
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

    /** The predictors that only targets are read from. */
    struct TargetPredictors;

    /** The loop's branch-answer sources (o3core.cc). */
    class Predict;
    class Record;
    class Replay;
    class Traced;

    template <typename Branches>
    std::optional<SimStats> runLoop(ChampSimView trace,
                                    std::uint64_t warmup,
                                    Branches &branches);

    /** Build the predictors the parameters read (once per core). */
    void buildPredictors();

    BranchOutcome predictBranch(Addr ip, BranchType type, bool taken,
                                Addr actual_target);

    /** The poll of a kCancelPollInterval boundary. */
    [[gnu::noinline]] void pollCancel() const;

    /** Snapshot the raw counters (for warmup subtraction). */
    SimStats snapshot() const;

    CoreParams params_;
    MemoryHierarchy mem_;
    Port port_;
    std::unique_ptr<DirectionPredictor> dir_;
    /** BTB, ITTAGE and RAS; none under idealTargets, whose answers
     *  never read them. */
    std::unique_ptr<TargetPredictors> targets_;
    InstrPrefetcher *ipref_;
    const resil::CancelToken *cancel_ = nullptr;

    // Raw cumulative counters (snapshotted at the warmup boundary).
    SimStats raw_;
};

} // namespace trb

#endif // TRB_PIPELINE_O3CORE_HH
