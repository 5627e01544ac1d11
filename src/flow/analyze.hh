/**
 * @file
 * trb::flow -- the whole-program trace analyzer facade.
 *
 * One call runs the full static-analysis pipeline over a converted
 * trace:
 *
 *   1. the streaming lint rules (the linear-scan Linter, unchanged);
 *   2. CFG reconstruction (flow/cfg.hh);
 *   3. the worklist dataflow solution (flow/dataflow.hh);
 *   4. the whole-program lint rules (flow/rules.hh), merged into the
 *      same LintReport -- one report, streaming and CFG findings side
 *      by side, rendered by the existing writeReportText/Json.
 *
 * Steps 2-4 run only when the enable/disable selection keeps at least
 * one whole-program rule; a streaming-only selection leaves the Cfg
 * empty and the report equal to lint::lintTrace()/lintConverted().
 *
 * Observability: phases analyze.{lint,cfg,dataflow,rules} in the
 * trb::obs profile, counters flow.{analyses,blocks,edges,teleports,
 * chains} and flow.<rule>.violations in the global registry.
 * Everything is deterministic per trace at any TRB_JOBS.
 */

#ifndef TRB_FLOW_ANALYZE_HH
#define TRB_FLOW_ANALYZE_HH

#include <iosfwd>
#include <string>

#include "flow/cfg.hh"
#include "flow/dataflow.hh"
#include "lint/lint.hh"

namespace trb
{
namespace flow
{

/** Everything the analyzer learned about one trace. */
struct FlowResult
{
    /** Streaming findings plus the whole-program findings. */
    lint::LintReport report;

    /** Empty when no whole-program rule was selected (or no records). */
    Cfg cfg;
    Dataflow dataflow;
};

/** Analyze a ChampSim trace alone (stream-only lint rules). */
FlowResult analyzeTrace(const ChampSimTrace &trace,
                        const lint::LintOptions &opts = {});

/** Analyze a converted trace against its originating CVP-1 stream. */
FlowResult analyzeConverted(const CvpTrace &cvp, const ChampSimTrace &trace,
                            const lint::LintOptions &opts = {});

/**
 * Machine-readable analysis object: the writeReportJson object plus,
 * when the CFG was built, "cfg": {"blocks", "edges", "teleports",
 * "entry_pc", "chains", "chain_links"}.
 */
void writeAnalysisJson(std::ostream &os, const FlowResult &result,
                       const std::string &name);

/** Human-readable analysis summary (report + CFG footer when built). */
void writeAnalysisText(std::ostream &os, const FlowResult &result,
                       const std::string &name);

} // namespace flow
} // namespace trb

#endif // TRB_FLOW_ANALYZE_HH
