/**
 * @file
 * trb::lint -- a static checker for converted ChampSim µop streams.
 *
 * The linter proves (or disproves) that a converted trace obeys the
 * invariants a *fully improved* cvp2champsim conversion guarantees --
 * exactly the six defect classes of the paper (Section 3) plus structural
 * sanity (def-before-use, PC continuity, taken-target consistency, RAS
 * balance, branch-type deducibility) -- without running a single simulated
 * cycle.  Two modes:
 *
 *  - paired: the originating CVP-1 stream is available, so the linter
 *    re-aligns each CVP record with the one or two µops it produced and
 *    every rule (including the six paper rules) can run;
 *  - stream-only: just the ChampSim trace; the structural rules run.
 *
 * Entry points: lintConverted() / lintTrace() for whole traces, the
 * streaming Linter class for converters that want to check as they emit,
 * and maybeLintConverted() -- the TRB_LINT=1 hook the experiment harness
 * calls after every conversion so any experiment can self-check its
 * inputs.  Violation totals land in the trb::obs registry as
 * lint.<rule>.violations.
 */

#ifndef TRB_LINT_LINT_HH
#define TRB_LINT_LINT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "lint/rule.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace trb
{
namespace lint
{

/** Configuration of one lint run. */
struct LintOptions
{
    /** Rule ids to run; empty means every rule. */
    std::vector<std::string> enable;

    /** Rule ids to skip (applied after @p enable). */
    std::vector<std::string> disable;

    /** Structural-rule thresholds. */
    LintLimits limits;

    /**
     * Stored diagnostics per rule; counting always covers the full
     * stream.  0 stores none (counts only).
     */
    std::uint64_t maxDiagnosticsPerRule = 20;

    /**
     * Resolve enable/disable into the rule-id list to instantiate.
     * Returns false and fills @p bad_id when a listed id is unknown.
     */
    bool resolveRules(std::vector<std::string> &out,
                      std::string &bad_id) const;
};

/** Per-rule violation total (full count, not capped). */
struct RuleCount
{
    std::string rule;
    Severity severity = Severity::Error;
    std::uint64_t count = 0;
};

/** Result of one lint run. */
struct LintReport
{
    bool paired = false;             //!< CVP stream was available
    std::uint64_t unitsScanned = 0;  //!< CVP records (paired) or µops
    std::uint64_t uopsScanned = 0;   //!< ChampSim records examined

    /** Stored findings, stream order, capped per rule. */
    std::vector<Diagnostic> diagnostics;

    /** Full per-rule totals, catalog order, only rules that fired. */
    std::vector<RuleCount> counts;

    std::uint64_t errors = 0;    //!< total Error findings
    std::uint64_t warnings = 0;  //!< total Warn findings
    std::uint64_t infos = 0;     //!< total Info findings

    /** Violations = findings at Warn or above. */
    std::uint64_t violations() const { return errors + warnings; }
    bool clean() const { return violations() == 0; }

    /** Total for one rule id (0 when it did not fire). */
    std::uint64_t countFor(const std::string &rule) const;
};

/**
 * Streaming linter: feed converted instructions as they are produced,
 * then finish().  Paired and stream-only units may not be mixed within
 * one run.
 */
class Linter
{
  public:
    explicit Linter(const LintOptions &opts = {});
    ~Linter();

    Linter(const Linter &) = delete;
    Linter &operator=(const Linter &) = delete;

    /** Paired mode: one CVP record and the µops it converted into. */
    void add(const CvpRecord &cvp, const ChampSimRecord *uops, unsigned n);

    /** Stream-only mode: one converted µop. */
    void add(const ChampSimRecord &uop);

    /** Run end-of-stream rules and build the report. */
    LintReport finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Lint a ChampSim trace alone (structural rules only). */
LintReport lintTrace(const ChampSimTrace &trace,
                     const LintOptions &opts = {});

/**
 * Lint a converted trace against its originating CVP-1 stream (all
 * rules).  Re-aligns each CVP record with its µops by PC: the converter
 * places split µops at pc and pc+2, and real instruction PCs are 4-byte
 * spaced, so the grouping is unambiguous; records that cannot be aligned
 * are reported under the "align" pseudo-rule.
 */
LintReport lintConverted(const CvpTrace &cvp, ChampSimView trace,
                         const LintOptions &opts = {});

/** Human-readable report (diagnostics + per-rule totals). */
void writeReportText(std::ostream &os, const LintReport &report,
                     const std::string &name);

/**
 * Machine-readable report object:
 * {"name", "paired", "units", "uops",
 *  "totals": {"errors", "warnings", "infos"},
 *  "rules": {id: {"severity", "count"}, ...},
 *  "diagnostics": [{"rule", "severity", "index", "pc", "message",
 *                   "fix"}, ...]}
 */
void writeReportJson(std::ostream &os, const LintReport &report,
                     const std::string &name);

/** True when TRB_LINT is set to a non-zero/non-empty value (read once). */
bool lintEnabledFromEnv();

/**
 * The self-check hook: when TRB_LINT=1, lint @p trace against @p cvp,
 * fold per-rule totals into the global obs registry
 * (lint.<rule>.violations, lint.streams, lint.streams_dirty) and log a
 * per-stream summary at debug level.  Returns the violation count (0
 * when lint is disabled).  Thread-safe; called by the experiment harness
 * after every conversion.
 */
std::uint64_t maybeLintConverted(const std::string &tag, const CvpTrace &cvp,
                                 ChampSimView trace);

} // namespace lint
} // namespace trb

#endif // TRB_LINT_LINT_HH
