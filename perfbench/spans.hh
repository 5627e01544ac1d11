/**
 * @file
 * In-memory spans for the traced run.  The benchmark wraps each call it
 * makes into a layer's public API in a span (name, start, end, parent,
 * request id); spans stay in memory, one SpanLog per thread, and are
 * summarised and written out when the run ends.  A span's self time is
 * its duration minus the durations of its children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded call. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;        //!< request / row id
    std::int64_t parent = -1;    //!< index in the same log, -1 = root
    std::int64_t startNs = 0;    //!< steady clock, since the log's epoch
    std::int64_t endNs = -1;     //!< -1 while open
};

/** The spans of one thread. */
class SpanLog
{
  public:
    explicit SpanLog(unsigned thread = 0) : thread_(thread) {}

    /** Open a span under the innermost open one; returns its index. */
    std::size_t begin(const std::string &name, std::uint64_t id);

    /** Close span @p index (must be the innermost open span). */
    void end(std::size_t index);

    const std::vector<Span> &spans() const { return spans_; }
    unsigned thread() const { return thread_; }

  private:
    unsigned thread_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span; a null log records nothing (tracing off). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name, std::uint64_t id)
        : log_(log), index_(log ? log->begin(name, id) : 0)
    {}
    ~SpanScope()
    {
        if (log_)
            log_->end(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::size_t index_;
};

/** Per-name totals over one or more logs. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalS = 0.0;   //!< summed durations
    double selfS = 0.0;    //!< summed self times
};

/** Add @p log's spans into @p totals, keyed by span name. */
void summarize(const SpanLog &log, std::map<std::string, SpanTotals> &totals);

/** Summed duration of @p log's root spans, in seconds. */
double rootSeconds(const SpanLog &log);

/**
 * Structural check: every span closed, no negative self time, and no
 * child starting before or ending after its parent.  Returns an empty
 * string when the log is sound, else the first violation.
 */
std::string checkSpans(const SpanLog &log);

/** Write @p logs as one JSON document; false on I/O failure. */
bool writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
