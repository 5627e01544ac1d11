/**
 * @file
 * Pipeline event tracer: a bounded ring buffer of per-instruction
 * lifecycle records (fetch / dispatch / issue / complete / retire cycle
 * stamps, squash cause) that O3Core::runTraced() emits.
 *
 * The tracer is off the hot path of every other run: runTraced() is its
 * own build of the core loop, so untraced simulations carry no test for
 * it.  When tracing, the ring keeps the most recent
 * TRB_TRACE_BUF records (default 65536), which is the window every
 * exporter renders:
 *
 *  - writeChromeTrace(): Chrome trace_event JSON (load into
 *    chrome://tracing or Perfetto; one lane per ROB-slot-like track,
 *    one slice per pipeline stage);
 *  - renderLaneView(): gem5-O3PipeView-style text lanes for a PC range
 *    (see examples/pipeline_viewer.cpp).
 */

#ifndef TRB_OBS_PIPELINE_TRACE_HH
#define TRB_OBS_PIPELINE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace trb
{
namespace obs
{

/** Why the front-end was redirected at this instruction, if it was. */
enum class SquashCause : std::uint8_t
{
    None = 0,
    DirectionMispredict,   //!< conditional predicted the wrong way
    TargetMispredict,      //!< BTB/ITTAGE/RAS produced the wrong target
};

/** Human-readable name of a squash cause. */
const char *squashCauseName(SquashCause c);

/** One instruction's trip through the pipeline. */
struct InstrEvent
{
    std::uint64_t seq = 0;   //!< position in the trace
    Addr ip = 0;
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Cycle retire = 0;
    BranchType branch = BranchType::NotBranch;
    SquashCause squash = SquashCause::None;
    bool isLoad = false;
    bool isStore = false;
};

/** Bounded ring buffer of instruction lifecycle records. */
class PipelineTracer
{
  public:
    /** TRB_TRACE_BUF, clamped to >= 1. */
    static std::size_t capacityFromEnv(std::size_t def = 65536);

    /** @param capacity ring size in records (>= 1). */
    explicit PipelineTracer(std::size_t capacity = capacityFromEnv());

    /** Record one retired instruction (overwrites the oldest). */
    void
    record(const InstrEvent &ev)
    {
        ring_[recorded_ % ring_.size()] = ev;
        ++recorded_;
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Total records ever pushed (>= size() once wrapped). */
    std::uint64_t recorded() const { return recorded_; }

    /** Records currently held. */
    std::size_t
    size() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<std::size_t>(recorded_)
                   : ring_.size();
    }

    void clear();

    /** The held records, oldest first. */
    std::vector<InstrEvent> events() const;

    /** Chrome trace_event JSON ({"traceEvents": [...]}). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<InstrEvent> ring_;
    std::uint64_t recorded_ = 0;
};

/**
 * Render a gem5-O3PipeView-style text lane view of @p events restricted
 * to instructions whose ip lies in [lo, hi] (lo = 0, hi = ~0 shows all).
 *
 * One line per instruction: seq, ip, kind, then a timeline of stage
 * letters (f=fetch, d=dispatch, i=issue, c=complete, r=retire) on a
 * cycle axis relative to the first shown fetch, squash causes flagged.
 *
 * @param max_instrs cap on rendered lines (0 = no cap)
 */
std::string renderLaneView(const std::vector<InstrEvent> &events,
                           Addr lo = 0, Addr hi = ~Addr{0},
                           std::size_t max_instrs = 0);

} // namespace obs
} // namespace trb

#endif // TRB_OBS_PIPELINE_TRACE_HH
