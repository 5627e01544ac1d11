#include "obs/bench_record.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "par/thread_pool.hh"

#ifndef TRB_GIT_SHA
#define TRB_GIT_SHA "unknown"
#endif

namespace trb
{
namespace obs
{

const char *const kBenchSchema = "trb-bench-v2";

namespace
{

std::string
hostname()
{
#ifdef __linux__
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0])
        return buf;
#endif
    return "unknown";
}

std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
renderBenchRecord(std::ostream &os, const std::string &bench_name,
                  double wall_seconds, const MetricsRegistry &reg,
                  const PhaseProfile &phases)
{
    os << "{\n";
    os << "  \"schema\": " << jsonQuote(kBenchSchema) << ",\n";
    os << "  \"bench\": " << jsonQuote(bench_name) << ",\n";
    os << "  \"host\": " << jsonQuote(hostname()) << ",\n";
    os << "  \"git_sha\": " << jsonQuote(TRB_GIT_SHA) << ",\n";
    os << "  \"wall_seconds\": " << jsonDouble(wall_seconds) << ",\n";

    // Worker-pool shape, if a pool was ever started.
    if (const par::ThreadPool *pool = par::ThreadPool::globalIfStarted())
        os << "  \"jobs\": " << pool->jobs() << ",\n  \"steals\": "
           << pool->stealCount() << ",\n";

    // The trb::env fingerprint: every registered knob that was set for
    // this run, so a manifest is reproducible from its own contents.
    os << "  \"env\": {";
    const char *sep = "";
    for (const env::VarInfo &var : env::registry()) {
        const char *value = env::raw(var.name);
        if (!value)
            continue;
        os << sep << "\n    " << jsonQuote(var.name) << ": "
           << jsonQuote(value);
        sep = ",";
    }
    os << (*sep ? "\n  " : "") << "},\n";

    // Per-phase wall time and throughput: the per-metric provenance a
    // perf diff gates on.  Inclusive seconds nest; self seconds do not,
    // so only they add up to the total below.
    os << "  \"phases\": {";
    sep = "";
    double phase_seconds = 0.0;
    std::uint64_t items = 0;
    for (const PhaseProfile::Entry &e : phases.entries()) {
        os << sep << "\n    " << jsonQuote(e.name) << ": {\"seconds\": "
           << jsonDouble(e.seconds) << ", \"self_seconds\": "
           << jsonDouble(e.selfSeconds) << ", \"calls\": " << e.calls
           << ", \"items\": " << e.items << ", \"items_per_second\": "
           << jsonDouble(e.itemsPerSecond()) << "}";
        sep = ",";
        phase_seconds += e.selfSeconds;
        if (e.name == kSimulatePhase)
            items = e.items;
    }
    os << (*sep ? "\n  " : "") << "},\n";

    // The headline: records run through O3Core per wall second.
    os << "  \"totals\": {\"items\": " << items
       << ", \"phase_seconds\": " << jsonDouble(phase_seconds)
       << ", \"items_per_second\": "
       << jsonDouble(wall_seconds > 0.0
                         ? static_cast<double>(items) / wall_seconds
                         : 0.0)
       << "},\n";

    // Store effectiveness, derived from the registry counters.
    const std::uint64_t hits = reg.counterValue("store.hits");
    const std::uint64_t misses = reg.counterValue("store.misses");
    os << "  \"store\": {\"hits\": " << hits << ", \"misses\": " << misses
       << ", \"hit_rate\": "
       << jsonDouble(hits + misses
                         ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0)
       << "},\n";

    // The full registry: counters carry the sweep digests (bit-exact
    // result provenance), gauges the per-trace IPCs and phase exports.
    const MetricsRegistry::Snapshot snap = reg.snapshot();
    os << "  \"counters\": {";
    sep = "";
    for (const MetricsRegistry::CounterEntry &c : snap.counters) {
        os << sep << "\n    " << jsonQuote(c.path) << ": " << c.value;
        sep = ",";
    }
    os << (*sep ? "\n  " : "") << "},\n  \"gauges\": {";
    sep = "";
    for (const MetricsRegistry::GaugeEntry &g : snap.gauges) {
        os << sep << "\n    " << jsonQuote(g.path) << ": "
           << jsonDouble(g.value);
        sep = ",";
    }
    os << (*sep ? "\n  " : "") << "}\n}\n";
}

std::string
benchRecordPath(const std::string &bench_name)
{
    std::string dir = env::str("TRB_OBS_BENCH_DIR", ".");
    if (dir == "0" || dir == "off" || dir == "none")
        return "";
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + "BENCH_" + bench_name + ".json";
}

bool
writeBenchRecord(const std::string &bench_name, double wall_seconds)
{
    const std::string path = benchRecordPath(bench_name);
    if (path.empty())
        return false;
    std::ofstream out(path);
    if (!out) {
        trb_warn("obs: cannot open ", path, " for the bench record");
        return false;
    }
    renderBenchRecord(out, bench_name, wall_seconds,
                      MetricsRegistry::global(), PhaseProfile::global());
    trb_inform("obs: wrote bench record to ", path);
    return true;
}

} // namespace obs
} // namespace trb
