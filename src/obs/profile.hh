/**
 * @file
 * The phase table and the suite progress reporter.
 *
 * PhaseProfile is the per-phase table every bench prints at exit and
 * writes into its run manifest: calls, inclusive seconds, self seconds
 * and items per phase name ("generate", "convert", "simulate", "trace",
 * ...).  It has no timer of its own -- every row is folded from
 * completed obs::SpanScope spans (span.hh), the one timed scope type,
 * so the table and the Chrome timeline describe the same scopes.  Self
 * seconds exclude the child spans that ran on the same thread, so they
 * add up to no more than wall time x threads however deeply phases nest.
 *
 * Thread safety: PhaseProfile::add() and SuiteProgress::step() are safe
 * from concurrent pool workers; every reader takes the same lock.
 * Under TRB_JOBS>1 the *first-seen order* of phases depends on the
 * schedule, but the accumulated calls/items per phase do not.
 */

#ifndef TRB_OBS_PROFILE_HH
#define TRB_OBS_PROFILE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace trb
{
namespace obs
{

class MetricsRegistry;

/**
 * The phase whose items are the run's headline: records run through
 * O3Core.  The manifest totals and the sampler's rate both count it.
 */
inline constexpr const char *kSimulatePhase = "simulate";

/** Accumulated wall time (and item throughput) per phase name. */
class PhaseProfile
{
  public:
    struct Entry
    {
        std::string name;
        double seconds = 0.0;       //!< inclusive of child spans
        double selfSeconds = 0.0;   //!< minus same-thread child spans
        std::uint64_t calls = 0;
        std::uint64_t items = 0;    //!< e.g. instructions processed

        double
        itemsPerSecond() const
        {
            return seconds > 0.0 ? static_cast<double>(items) / seconds : 0.0;
        }
    };

    /** Fold one completed span into @p phase (locked, any thread). */
    void add(std::string_view phase, double seconds, double self_seconds,
             std::uint64_t items = 0);

    /** Copy of every phase, in first-seen order. */
    std::vector<Entry> entries() const;

    /** Items accumulated by @p phase; 0 if absent. */
    std::uint64_t items(std::string_view phase) const;

    void clear();

    /**
     * Render a table: phase, inclusive and self seconds, the self share
     * of all self time, calls, and items/second where items were
     * recorded.
     */
    std::string report(const std::string &prefix = "") const;

    /**
     * Export as gauges/counters under @p prefix: <prefix>.<phase>.seconds,
     * .self_seconds, .calls, .items, .items_per_second.
     */
    void exportTo(MetricsRegistry &reg, const std::string &prefix) const;

    /** The process-wide table every SpanScope feeds. */
    static PhaseProfile &global();

  private:
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;   // a handful of rows: scanned, not hashed
};

/**
 * Suite progress reporter: live progress on stderr while a suite runs,
 * per-trace detail at debug level, and an end-of-suite wall-time /
 * instructions-per-second summary at info level.  step() is safe from
 * concurrent pool workers.
 *
 * The live output adapts to where stderr goes (at info level and up):
 * on a terminal each step redraws one carriage-return progress line; on
 * anything else -- CI logs, redirected files -- it emits a sparse
 * line-per-milestone (about every 10% of the suite, always the last
 * step), so captured logs never accumulate control-character noise.
 * Nothing is ever written to stdout, which stays byte-identical.
 */
class SuiteProgress
{
  public:
    /** How step() renders progress on stderr. */
    enum class Style
    {
        Live,     //!< carriage-return redraw (stderr is a terminal)
        Sparse,   //!< one plain line per ~10% milestone
        Silent,   //!< nothing per step (log level below info)
    };

    /** Style for the current process: tty detection + log level. */
    static Style styleFromEnvironment();

    SuiteProgress(std::string what, std::size_t total);

    /** @param style override the auto-detected rendering (tests). */
    SuiteProgress(std::string what, std::size_t total, Style style);

    ~SuiteProgress();

    SuiteProgress(const SuiteProgress &) = delete;
    SuiteProgress &operator=(const SuiteProgress &) = delete;

    /** One unit of work done (0-based @p index), @p items processed. */
    void step(std::size_t index, std::uint64_t items = 0);

  private:
    std::mutex mutex_;
    std::string what_;
    std::size_t total_;
    Style style_;
    std::size_t stride_;   //!< sparse-mode milestone interval
    std::size_t done_ = 0;
    std::uint64_t items_ = 0;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace trb

#endif // TRB_OBS_PROFILE_HH
