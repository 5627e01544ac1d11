/**
 * @file
 * BENCH run manifests: every bench binary ends its run by writing a
 * schema-versioned BENCH_<name>.json record -- inclusive and self
 * seconds and items/s per phase, the simulated-records-per-wall-second
 * headline, the full metrics registry (counters and gauges, which
 * carry the SimStats digests and store hit/miss counts), the trb::env
 * fingerprint (every registered TRB_* variable that was set), hostname
 * and git SHA -- the repo's tracked instr/s baseline.
 *
 * The record is what tools/trace_perf diffs: two manifests from the
 * same bench at different commits answer "did this change make the
 * simulator slower, and in which phase".  Schema evolution is
 * append-only; bump kBenchSchema when a field changes meaning.
 *
 * TRB_OBS_BENCH_DIR picks the output directory (default: the working
 * directory); set it to "0" or "off" to suppress the file entirely.
 */

#ifndef TRB_OBS_BENCH_RECORD_HH
#define TRB_OBS_BENCH_RECORD_HH

#include <iosfwd>
#include <string>

namespace trb
{
namespace obs
{

class MetricsRegistry;
class PhaseProfile;

/** The manifest schema identifier ("trb-bench-v2"). */
extern const char *const kBenchSchema;

/**
 * Render the manifest JSON for @p bench_name from explicit sources
 * (tests pass private registries; runBench passes the globals).
 * @p wall_seconds is the whole-process wall time the caller measured.
 */
void renderBenchRecord(std::ostream &os, const std::string &bench_name,
                       double wall_seconds, const MetricsRegistry &reg,
                       const PhaseProfile &phases);

/**
 * Resolve the BENCH_<name>.json path for @p bench_name under
 * TRB_OBS_BENCH_DIR; empty string when disabled.
 */
std::string benchRecordPath(const std::string &bench_name);

/**
 * Write the global registries' manifest to benchRecordPath(); logs the
 * destination at info level.  @return true if a file was written.
 */
bool writeBenchRecord(const std::string &bench_name, double wall_seconds);

} // namespace obs
} // namespace trb

#endif // TRB_OBS_BENCH_RECORD_HH
