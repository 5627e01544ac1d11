/**
 * @file
 * Spans: the one timed scope type.  Every timed scope -- bench, sweep,
 * trace, generate, convert, simulate, ... -- is an obs::SpanScope.  On
 * close it folds into the phase table (PhaseProfile::global(), always)
 * and, when TRB_OBS_SPANS is set, into a timeline that obs::finish()
 * writes as a Chrome trace_event file with one lane per pool worker.
 *
 * Each span links to the innermost live span on its own thread, so it
 * knows its depth and its *self* time: its duration minus that of its
 * children on the same thread.  Self times never overlap, so they add
 * up to no more than wall time x threads however deeply phases nest.
 *
 * A span's name keys the phase table and must come from a small fixed
 * set (a string literal).  A per-instance qualifier -- a trace or
 * improvement-set name -- goes in the optional label, which only the
 * timeline shows: SpanScope("trace", "srv_0") is one more call of the
 * "trace" row and a "trace.srv_0" slice in the Chrome file, so a
 * long-running daemon keeps a bounded table.
 *
 * Every slice is on pid 0, on the wall-clock axis (microseconds since
 * process start, tid = worker id).  Per-instruction pipeline slices,
 * on their cycle axis, are PipelineTracer::writeChromeTrace's file
 * (TRB_PIPE_JSON), not this one.
 *
 * Cost: two steady_clock reads and one short table lock per span.
 * Spans are coarse -- one per bench, sweep, trace or whole stage call,
 * never per instruction.  With TRB_OBS_SPANS unset nothing is copied
 * into the timeline.
 */

#ifndef TRB_OBS_SPAN_HH
#define TRB_OBS_SPAN_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace trb
{
namespace obs
{

/** One completed wall-clock span, as the timeline holds it. */
struct SpanEvent
{
    std::string name;        //!< "trace.srv_0", "sweep": name[.label]
    const char *phase = "";  //!< phase-table key ("trace"); Chrome "cat"
    double startUs = 0.0;    //!< microseconds since process start
    double durUs = 0.0;
    std::uint32_t worker = 0;   //!< pool lane (par::workerId())
    std::uint32_t depth = 0;    //!< nesting depth on its thread
    std::uint64_t items = 0;    //!< e.g. instructions covered
};

/** Process-wide collector of completed spans. */
class SpanTimeline
{
  public:
    SpanTimeline() = default;
    SpanTimeline(const SpanTimeline &) = delete;
    SpanTimeline &operator=(const SpanTimeline &) = delete;

    /**
     * True when span collection is on (TRB_OBS_SPANS set).  Cached
     * after the first call; the test override below refreshes it.
     */
    static bool enabled();

    /** Force the enabled flag (tests); pass -1 to re-read the env. */
    static void setEnabledForTests(int on);

    /** Microseconds since the process-wide span epoch. */
    static double nowUs();

    /** Append one completed span (locked, any thread). */
    void record(SpanEvent ev);

    /** Number of spans held. */
    std::size_t size() const;

    /** Copy of every span, in completion order. */
    std::vector<SpanEvent> snapshot() const;

    void clear();

    /**
     * Write the Chrome trace: a process_name record, then the held
     * spans as "X" slices on pid 0 (tid = worker lane).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** The process-wide timeline obs::finish() dumps. */
    static SpanTimeline &global();

  private:
    mutable std::mutex mutex_;
    std::vector<SpanEvent> spans_;
};

/**
 * RAII span: times its lifetime, then folds it into the phase table
 * and (timeline enabled) records it on the current worker's lane.
 * Nesting is tracked per thread, so concurrent lanes never interleave.
 * Declare it only as a local variable: the parent link requires spans
 * on one thread to close in the reverse order they opened.
 */
class SpanScope
{
  public:
    /**
     * @param name  phase-table key; a string literal (it is kept by
     *              pointer) from a small fixed set of phase names
     * @param label optional per-instance qualifier, timeline only
     */
    explicit SpanScope(const char *name, std::string label = {});
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Attach an item count (e.g. instructions) for throughput. */
    void setItems(std::uint64_t items) { items_ = items; }

  private:
    const char *name_;
    std::string label_;
    std::uint64_t items_ = 0;
    SpanScope *parent_;          //!< enclosing span on this thread
    std::uint32_t depth_;
    double childUs_ = 0.0;       //!< summed durations of direct children
    double startUs_;
};

} // namespace obs
} // namespace trb

#endif // TRB_OBS_SPAN_HH
