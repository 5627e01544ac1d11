/**
 * @file
 * Perf-regression comparison over BENCH run manifests: diff a baseline
 * and a candidate trb-bench record metric-by-metric, apply per-metric
 * noise thresholds, and produce a verdict table.  This is the library
 * half of tools/trace_perf; it works on parsed JsonFlat documents so
 * tests can drive it without touching the filesystem.
 *
 * Gating policy: throughput metrics -- every numeric path ending in
 * "items_per_second" -- are *gated*: a drop beyond the threshold is a
 * regression.  Wall-clock paths ("wall_seconds", ".../seconds") are
 * reported for context but never gate, since process wall time folds in
 * startup noise the throughput numbers already exclude.  A metric
 * present on only one side is reported but never gates either (phases
 * come and go across commits; a perf gate should not block a rename).
 */

#ifndef TRB_OBS_PERF_COMPARE_HH
#define TRB_OBS_PERF_COMPARE_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace trb
{

struct JsonFlat;

namespace obs
{

/** Comparison knobs (CLI flags map straight onto these). */
struct PerfCompareOptions
{
    /** Noise threshold in percent; a gated metric regresses when it
     *  drops by more than this. */
    double thresholdPercent = 5.0;

    /** Per-metric overrides of thresholdPercent, keyed by flat path. */
    std::map<std::string, double> perMetricThresholdPercent;

    /** Effective threshold for @p metric. */
    double thresholdFor(const std::string &metric) const;
};

/** One compared metric. */
struct PerfDelta
{
    std::string metric;          //!< flat path, e.g. "totals/items_per_second"
    double base = 0.0;
    double candidate = 0.0;
    double deltaPercent = 0.0;   //!< (candidate - base) / base * 100
    double thresholdPercent = 0.0;
    bool gated = false;          //!< counts toward the verdict
    bool regression = false;     //!< gated and dropped past the threshold
};

/** The full verdict. */
struct PerfCompareResult
{
    std::vector<PerfDelta> deltas;        //!< gated first, then context rows
    std::vector<std::string> missing;     //!< paths on one side only
    std::string error;                    //!< non-empty: records not comparable
    bool regression = false;              //!< any gated metric regressed

    bool ok() const { return error.empty() && !regression; }
};

/**
 * Compare two parsed trb-bench records.  Sets @c error (and nothing
 * else) when the schemas disagree or the baseline has no gated metric
 * at all -- an empty gate would vacuously pass forever.
 */
PerfCompareResult comparePerfRecords(const JsonFlat &base,
                                     const JsonFlat &candidate,
                                     const PerfCompareOptions &opts);

/** Render the verdict table (aligned columns, one metric per row). */
void renderPerfTable(std::ostream &os, const PerfCompareResult &result);

} // namespace obs
} // namespace trb

#endif // TRB_OBS_PERF_COMPARE_HH
