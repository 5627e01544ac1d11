#include "obs/sampler.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "par/thread_pool.hh"

namespace trb
{
namespace obs
{

Sampler::Options
Sampler::optionsFromEnv()
{
    Options opts;
    opts.periodMs = env::u64("TRB_OBS_SAMPLE_MS", 0);
    opts.path = env::str("TRB_OBS_SAMPLE_PATH", "obs_samples.jsonl");
    return opts;
}

std::unique_ptr<Sampler>
Sampler::startFromEnv()
{
    Options opts = optionsFromEnv();
    if (opts.periodMs == 0)
        return nullptr;
    return std::make_unique<Sampler>(opts);
}

Sampler::Sampler(const Options &opts)
    : periodMs_(opts.periodMs), start_(std::chrono::steady_clock::now())
{
    if (!opts.path.empty()) {
        file_.open(opts.path, std::ios::trunc);
        if (!file_)
            trb_warn("obs: cannot open ", opts.path,
                     " for metric samples; sampling to nowhere");
    }
    if (periodMs_ > 0)
        thread_ = std::thread([this] { heartbeat(); });
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::heartbeat()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        if (wake_.wait_for(lock, std::chrono::milliseconds(periodMs_),
                           [this] { return stopping_; }))
            break;
        // Sample without the lock so stop() is never delayed by a slow
        // snapshot; stop() only joins, it does not touch the file until
        // the thread is gone.
        lock.unlock();
        if (file_) {
            sampleOnce(file_);
            file_.flush();
        }
        lock.lock();
    }
}

void
Sampler::stop()
{
    if (stopped_)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    // Final sample so even the shortest enabled run produces one line.
    if (file_) {
        sampleOnce(file_);
        file_.flush();
    }
    stopped_ = true;
}

std::uint64_t
Sampler::processRssKb()
{
#ifdef __linux__
    std::FILE *statm = std::fopen("/proc/self/statm", "r");
    if (!statm)
        return 0;
    std::uint64_t total_pages = 0, resident_pages = 0;
    const int fields = std::fscanf(statm, "%" SCNu64 " %" SCNu64,
                                   &total_pages, &resident_pages);
    std::fclose(statm);
    if (fields != 2)
        return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return resident_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096)
           / 1024;
#else
    return 0;
#endif
}

void
Sampler::sampleOnce(std::ostream &os)
{
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();

    // Rolling throughput: records simulated since the previous tick
    // (the manifest headline's count), over the wall time between ticks.
    const std::uint64_t items = PhaseProfile::global().items(kSimulatePhase);
    double rate = 0.0;
    if (t > lastSampleSeconds_ && items >= lastItems_)
        rate = static_cast<double>(items - lastItems_) /
               (t - lastSampleSeconds_);
    lastItems_ = items;
    lastSampleSeconds_ = t;

    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"schema\": \"trb-sample-v1\", \"t\": %.6f, "
                  "\"rss_kb\": %llu, \"items_per_sec\": %.1f",
                  t, static_cast<unsigned long long>(processRssKb()), rate);
    os << head;

    // Pool telemetry -- but never construct the pool just to watch it.
    if (const par::ThreadPool *pool = par::ThreadPool::globalIfStarted()) {
        os << ", \"jobs\": " << pool->jobs() << ", \"steals\": "
           << pool->stealCount() << ", \"queue_depth\": [";
        const char *sep = "";
        for (std::size_t depth : pool->queueDepths()) {
            os << sep << depth;
            sep = ", ";
        }
        os << "]";
    }

    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::global().snapshot();
    os << ", \"counters\": {";
    const char *sep = "";
    for (const MetricsRegistry::CounterEntry &c : snap.counters) {
        os << sep << jsonQuote(c.path) << ": " << c.value;
        sep = ", ";
    }
    os << "}, \"gauges\": {";
    sep = "";
    for (const MetricsRegistry::GaugeEntry &g : snap.gauges) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", g.value);
        os << sep << jsonQuote(g.path) << ": " << buf;
        sep = ", ";
    }
    os << "}}\n";
    ++samples_;
}

} // namespace obs
} // namespace trb
