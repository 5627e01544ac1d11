/**
 * @file
 * Metrics registry: hierarchical counters, gauges and histograms
 * registered by component path ("core.rob.full_stalls",
 * "cache.l1i.mshr_merges"), with JSON and CSV exporters so every bench
 * binary can dump machine-readable results next to its human tables.
 *
 * Paths are dotted strings; the registry keeps insertion order so the
 * exported files read top-down the way components registered them.
 *
 * Thread safety: counters and gauges are written only under the
 * registry lock (setCounter()/setGauge()/addCounter()), and reads and
 * exports take a consistent snapshot under the same lock, so a late
 * worker can never race the at-exit dump.  Contended writers route hot
 * updates through a ThreadMetricsBuffer (one buffer per task, flushed
 * at task end); micro_components benchmarks it against the locked
 * registry.  histogram() is the one reference accessor: samples through
 * it are unsynchronised, so a histogram path has a single writer.
 *
 * TRB_OBS_JSON=<path> / TRB_OBS_CSV=<path> make obs::finish() (called by
 * the bench mains) write the global registry out at process end.
 */

#ifndef TRB_OBS_METRICS_HH
#define TRB_OBS_METRICS_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"

namespace trb
{
namespace obs
{

/** Hierarchical registry of counters, gauges and histograms. */
class MetricsRegistry
{
  public:
    /** A named uint64 counter entry. */
    struct CounterEntry
    {
        std::string path;
        std::uint64_t value = 0;
    };

    /** A named double gauge entry (ratios, rates, seconds). */
    struct GaugeEntry
    {
        std::string path;
        double value = 0.0;
    };

    /** A named histogram entry. */
    struct HistogramEntry
    {
        std::string path;
        Histogram hist;
    };

    /**
     * A consistent copy of every metric, taken under the registry lock.
     * This is what the exporters render, so a concurrent writer can
     * never tear a dump.
     */
    struct Snapshot
    {
        std::vector<CounterEntry> counters;
        std::vector<GaugeEntry> gauges;
        std::vector<HistogramEntry> histograms;
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Reference to the histogram at @p path; created with the given
     * shape if absent (the shape of an existing histogram wins).
     * Registration is locked and the reference stays valid for the
     * registry's lifetime; samples through it are not (one writer).
     */
    Histogram &histogram(const std::string &path,
                         std::uint64_t bucket_width = 1,
                         std::size_t num_buckets = 32);

    /** Set-style conveniences; fully locked, safe from any thread. */
    void setCounter(const std::string &path, std::uint64_t v);
    void setGauge(const std::string &path, double v);

    /** Locked add: safe for concurrent updates of the same path. */
    void addCounter(const std::string &path, std::uint64_t delta = 1);

    /** Value of a counter; 0 if absent (does not create). */
    std::uint64_t counterValue(const std::string &path) const;

    /** Value of a gauge; 0.0 if absent (does not create). */
    double gaugeValue(const std::string &path) const;

    bool empty() const;

    /** Drop every metric (tests; fresh runs in one process). */
    void clear();

    /** Copy every metric under the lock. */
    Snapshot snapshot() const;

    /**
     * Write the registry as one JSON object:
     * {"counters": {path: value, ...}, "gauges": {...},
     *  "histograms": {path: {bucket_width, total, mean, p50, p95, p99,
     *                        buckets: [...]}, ...}}
     * Renders a snapshot(), so it is safe against concurrent writers.
     */
    void writeJson(std::ostream &os) const;

    /** Write "kind,path,value" CSV rows (histograms flattened). */
    void writeCsv(std::ostream &os) const;

    std::string toJson() const;
    std::string toCsv() const;

    /** The process-wide registry the simulator components feed. */
    static MetricsRegistry &global();

  private:
    std::uint64_t &counterLocked(const std::string &path);
    double &gaugeLocked(const std::string &path);

    mutable std::mutex mutex_;
    std::deque<CounterEntry> counters_;
    std::deque<GaugeEntry> gauges_;
    std::deque<HistogramEntry> histograms_;
    std::unordered_map<std::string, std::size_t> counterIndex_;
    std::unordered_map<std::string, std::size_t> gaugeIndex_;
    std::unordered_map<std::string, std::size_t> histogramIndex_;
};

/**
 * Contended writers: a per-task (or per-thread) buffer of metric
 * updates, flushed into a shared registry in one batch.  The hot path
 * touches only thread-local memory; the shared lock is taken once per
 * flush instead of once per update.  Destruction flushes, so the
 * natural usage is one stack-allocated buffer per parallel task:
 *
 *     par::ThreadPool::global().parallelFor(n, [&](std::size_t i) {
 *         ThreadMetricsBuffer buf(obs::MetricsRegistry::global());
 *         buf.add("sweep.traces", 1);
 *         buf.set("sweep.trace" + std::to_string(i) + ".ipc", ipc);
 *     });   // flushed at task end
 */
class ThreadMetricsBuffer
{
  public:
    explicit ThreadMetricsBuffer(MetricsRegistry &target)
        : target_(target)
    {}

    ThreadMetricsBuffer(const ThreadMetricsBuffer &) = delete;
    ThreadMetricsBuffer &operator=(const ThreadMetricsBuffer &) = delete;

    ~ThreadMetricsBuffer() { flush(); }

    /** Buffer a counter delta (folded locally until flush). */
    void add(const std::string &path, std::uint64_t delta = 1);

    /** Buffer a gauge set (last local write wins at flush). */
    void set(const std::string &path, double v);

    /** Apply every buffered update to the target registry and reset. */
    void flush();

  private:
    MetricsRegistry &target_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
    std::vector<std::pair<std::string, double>> gauges_;
    std::unordered_map<std::string, std::size_t> counterIndex_;
    std::unordered_map<std::string, std::size_t> gaugeIndex_;
};

/** Escape a string for embedding in a JSON document (adds quotes). */
std::string jsonQuote(const std::string &s);

/**
 * Export the phase table into the global registry, log the phase
 * report (at info level) and honour TRB_OBS_JSON / TRB_OBS_CSV /
 * TRB_OBS_SPANS (the span Chrome trace).  Every bench main calls this
 * before exiting; calling it again is a no-op -- the exports happen
 * exactly once per process, so layered teardown paths (a bench's own
 * finish plus a library destructor, say) cannot double-export phases or
 * truncate an already-written dump.
 * @return true if at least one file was written by *this* call.
 */
bool finish();

/** Just the env-gated dump half of finish(). */
bool dumpIfRequested();

namespace detail
{
/** Re-arm finish() so a test can exercise it repeatedly. */
void resetFinishForTests();
} // namespace detail

} // namespace obs
} // namespace trb

#endif // TRB_OBS_METRICS_HH
