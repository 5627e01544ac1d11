/**
 * @file
 * Shared pieces of the repository benchmark (trb_bench): run options,
 * the metric report, the correctness reference, and small timing and
 * statistics helpers.  Everything the benchmark measures goes through
 * the public headers under src/; nothing here is linked into the
 * libraries.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/sim_stats.hh"
#include "store/digest.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Milliseconds between two instants. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Set-up repetitions whose median is reported as setup_s. */
constexpr int kSetupRepeats = 5;

/** What one invocation of trb_bench does. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Correctness reference (perfbench/reference.json). */
    std::string reference;

    /** Per-run scratch directory: store, socket, span dump. */
    std::string workDir;

    /**
     * Test hook: flip one bit of the first simulated result before it
     * is checked, so the correctness gate can be shown to fire.
     */
    bool flipBit = false;

    /**
     * Test hook: serve-mixed's timed clients connect to a socket no
     * daemon listens on, so a refused connection can be shown to fail
     * the run.
     */
    bool refuseConnect = false;
};

/** A metric's printed name and unit. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();

/**
 * The per-layer metrics, printed by every traced run.  A layer a
 * workload does not exercise reads 0 there.
 */
const std::vector<MetricDef> &perLayerMetrics();

/** The per-run result trb_bench prints. */
struct Report
{
    /** Results checked (sweep rows or serve replies) and how many failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Metric values by name (see endToEndMetrics / perLayerMetrics). */
    std::map<std::string, double> values;

    /** Extra human-readable lines (sample counts, class splits). */
    std::vector<std::string> notes;

    void set(const std::string &name, double value) { values[name] = value; }

    void note(const std::string &line) { notes.push_back(line); }

    /** Record one checked result. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 5)
                note("MISMATCH: " + what);
        }
    }

    /** A run is correct when every attempted result checked out. */
    bool correct() const { return attempted > 0 && failed == 0; }
};

/**
 * Correctness reference: for every suite trace a workload can draw, the
 * digest of its row of results and the converted-record count the row
 * feeds to O3Core::run.  Keyed by workload, then trace name (or warm
 * request key for serve-mixed).
 */
struct RowRef
{
    std::string digest;
    std::uint64_t records = 0;
};

using Reference = std::map<std::string, std::map<std::string, RowRef>>;

/** Parse @p path; false (with @p error) when unreadable or malformed. */
bool loadReference(const std::string &path, Reference &out,
                   std::string &error);

/** Write @p ref as JSON to @p path. */
bool saveReference(const std::string &path, const Reference &ref);

/** Digest over a sequence of u64 bit patterns (result rows). */
class RowDigest
{
  public:
    void add(const std::vector<std::uint64_t> &bits);
    void add(std::uint64_t word);
    void add(double value);
    void add(const trb::SimStats &stats) { add(stats.toBits()); }
    std::string hex() { return hasher_.finish().hex(); }

  private:
    trb::store::Hasher hasher_;
};

/** Flip the lowest bit of @p stats' cycle count (the test hook). */
void flipOneBit(trb::SimStats &stats);

/** Nearest-rank percentile (0 < p <= 100); 0 for an empty sample. */
double percentile(std::vector<double> values, double p);

/** Median of @p values (0 for an empty sample). */
double median(std::vector<double> values);

/** A seeded permutation of [0, n). */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/**
 * Pin the calling thread to the @p turn-th CPU (mod the CPUs this process
 * may use); a negative @p turn restores the full set.  The sweeps rotate
 * rows over the CPUs: on a virtual machine whose vCPUs run at different
 * speeds, a run then averages over all of them instead of reporting
 * whichever one the scheduler happened to pick.
 */
void rotateCpu(long turn);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** @name Workloads (each fills @p report; see perfbench/README.md) @{ */
void runFig1Cold(const Options &opt, const Reference &ref, Report &report);
void runIpc1Ipref(const Options &opt, const Reference &ref,
                  Report &report);
void runServeMixed(const Options &opt, const Reference &ref,
                   Report &report);
/** @} */

/** @name Recompute the reference rows (the --write-reference mode) @{ */
void buildSweepReference(Reference &ref);
void buildServeReference(Reference &ref);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
