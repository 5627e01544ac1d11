/**
 * @file
 * Time-series sampler: a background heartbeat thread that periodically
 * snapshots the global MetricsRegistry plus process RSS, the worker
 * pool's queue depths and steal counts, and a rolling rate of records
 * simulated per second into JSONL -- one self-contained JSON object per line, the streaming
 * metrics surface a serving daemon can forward over a socket while a
 * run is still in flight.
 *
 * Off by default: TRB_OBS_SAMPLE_MS=<period> turns it on (the bench
 * mains call Sampler::startFromEnv()), TRB_OBS_SAMPLE_PATH picks the
 * output file (default obs_samples.jsonl).  The sampler only ever
 * *reads* shared state -- registry snapshots under the registry lock,
 * the phase table under its lock, relaxed pool counters -- so enabling
 * it cannot perturb simulation results; it can only interleave extra
 * reads.
 *
 * stop() (and destruction) takes a final sample before joining, so an
 * enabled run always emits at least one line however short it was.
 */

#ifndef TRB_OBS_SAMPLER_HH
#define TRB_OBS_SAMPLER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace trb
{
namespace obs
{

/** Background JSONL metrics sampler. */
class Sampler
{
  public:
    struct Options
    {
        std::uint64_t periodMs = 0;    //!< 0 = disabled
        std::string path;              //!< JSONL output file
    };

    /** TRB_OBS_SAMPLE_MS / TRB_OBS_SAMPLE_PATH. */
    static Options optionsFromEnv();

    /**
     * Start a sampler if TRB_OBS_SAMPLE_MS is a positive period;
     * nullptr (and no thread, no file) otherwise.
     */
    static std::unique_ptr<Sampler> startFromEnv();

    /** Open @p opts.path and start the heartbeat thread. */
    explicit Sampler(const Options &opts);

    /** stop()s if still running. */
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Take a final sample, flush, and join the heartbeat.  Idempotent;
     * called by the destructor if the owner forgets.
     */
    void stop();

    /** Samples written so far (including the final one after stop()). */
    std::uint64_t samplesTaken() const { return samples_; }

    /**
     * Append one sample line to @p os: {"schema": "trb-sample-v1",
     * "t": seconds-since-start, "rss_kb": ..., "steals": ...,
     * "queue_depth": [...], "items_per_sec": rolling rate,
     * "counters": {...}, "gauges": {...}}.  Public so tests (and a
     * future serving daemon) can drive sampling without the thread.
     */
    void sampleOnce(std::ostream &os);

    /** Resident set size in KiB; 0 where /proc is unavailable. */
    static std::uint64_t processRssKb();

  private:
    void heartbeat();

    std::ofstream file_;
    std::uint64_t periodMs_;
    std::uint64_t samples_ = 0;
    std::chrono::steady_clock::time_point start_;

    // Rolling items/second state (previous tick's simulated records).
    double lastSampleSeconds_ = 0.0;
    std::uint64_t lastItems_ = 0;

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    bool stopped_ = false;
    std::thread thread_;
};

} // namespace obs
} // namespace trb

#endif // TRB_OBS_SAMPLER_HH
