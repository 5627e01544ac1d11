#include "flow/analyze.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "flow/rules.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace trb
{
namespace flow
{

namespace
{

/**
 * Collects the whole-program findings: full per-rule totals, stored
 * diagnostics capped per rule, for merging into the streaming
 * LintReport (same convention as the Linter's internal sink).
 */
class CfgSink : public lint::DiagnosticSink
{
  public:
    explicit CfgSink(std::uint64_t cap) : cap_(cap) {}

    void
    report(const lint::RuleInfo &rule, std::uint64_t index, Addr pc,
           std::string message, std::string fix_hint) override
    {
        Tally &tally = tallies_[rule.id];
        tally.severity = rule.severity;
        ++tally.count;
        if (tally.stored >= cap_)
            return;
        ++tally.stored;
        lint::Diagnostic d;
        d.rule = rule.id;
        d.severity = rule.severity;
        d.index = index;
        d.pc = pc;
        d.message = std::move(message);
        d.fixHint = std::move(fix_hint);
        diagnostics_.push_back(std::move(d));
    }

    /** Fold everything into @p report, keeping counts in catalog order. */
    void
    mergeInto(lint::LintReport &report) const
    {
        for (const lint::Diagnostic &d : diagnostics_)
            report.diagnostics.push_back(d);
        for (const lint::RuleInfo &info : lint::ruleCatalog()) {
            auto it = tallies_.find(info.id);
            if (it == tallies_.end())
                continue;
            report.counts.push_back(
                {it->first, it->second.severity, it->second.count});
            switch (it->second.severity) {
              case lint::Severity::Error:
                report.errors += it->second.count;
                break;
              case lint::Severity::Warn:
                report.warnings += it->second.count;
                break;
              case lint::Severity::Info:
                report.infos += it->second.count;
                break;
            }
            obs::MetricsRegistry::global().addCounter(
                "flow." + it->first + ".violations", it->second.count);
        }
    }

  private:
    struct Tally
    {
        lint::Severity severity = lint::Severity::Error;
        std::uint64_t count = 0;
        std::uint64_t stored = 0;
    };

    std::uint64_t cap_;
    std::map<std::string, Tally> tallies_;
    std::vector<lint::Diagnostic> diagnostics_;
};

/** Whole-program rule ids selected by the run's enable/disable lists. */
std::vector<std::string>
resolveCfgRules(const lint::LintOptions &opts)
{
    std::vector<std::string> ids;
    for (const std::string &id : wholeProgramRuleIds()) {
        if (!opts.enable.empty() &&
            std::find(opts.enable.begin(), opts.enable.end(), id) ==
                opts.enable.end())
            continue;
        if (std::find(opts.disable.begin(), opts.disable.end(), id) !=
            opts.disable.end())
            continue;
        ids.push_back(id);
    }
    return ids;
}

/** The shared tail: CFG, dataflow and the selected whole-program rules. */
void
analyzeTail(FlowResult &result, const ChampSimTrace &trace,
            const lint::LintOptions &opts)
{
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.addCounter("flow.analyses");
    const std::vector<std::string> rules = resolveCfgRules(opts);
    if (rules.empty())
        return;   // streaming-only selection: no CFG to build
    {
        obs::SpanScope span("analyze.cfg");
        result.cfg = buildCfg(trace, opts.limits.maxContiguousStep);
    }
    {
        obs::SpanScope span("analyze.dataflow");
        result.dataflow = solveDataflow(result.cfg);
    }
    {
        obs::SpanScope span("analyze.rules");
        CfgSink sink(opts.maxDiagnosticsPerRule);
        runCfgRules(result.cfg, result.dataflow, opts.limits, rules, sink);
        sink.mergeInto(result.report);
    }
    metrics.addCounter("flow.blocks", result.cfg.blocks.size());
    metrics.addCounter("flow.edges", result.cfg.edges.size());
    metrics.addCounter("flow.teleports", result.cfg.teleports);
    metrics.addCounter("flow.chains", result.dataflow.chains.size());
}

} // namespace

FlowResult
analyzeTrace(const ChampSimTrace &trace, const lint::LintOptions &opts)
{
    FlowResult result;
    {
        obs::SpanScope span("analyze.lint");
        result.report = lint::lintTrace(trace, opts);
    }
    analyzeTail(result, trace, opts);
    return result;
}

FlowResult
analyzeConverted(const CvpTrace &cvp, const ChampSimTrace &trace,
                 const lint::LintOptions &opts)
{
    FlowResult result;
    {
        obs::SpanScope span("analyze.lint");
        result.report = lint::lintConverted(cvp, trace, opts);
    }
    analyzeTail(result, trace, opts);
    return result;
}

void
writeAnalysisJson(std::ostream &os, const FlowResult &result,
                  const std::string &name)
{
    if (result.cfg.blocks.empty()) {
        lint::writeReportJson(os, result.report, name);
        return;
    }
    std::ostringstream report;
    lint::writeReportJson(report, result.report, name);
    std::string body = report.str();
    body.pop_back();   // re-open the report object to append our keys
    os << body << ", \"cfg\": {\"blocks\": " << result.cfg.blocks.size()
       << ", \"edges\": " << result.cfg.edges.size()
       << ", \"teleports\": " << result.cfg.teleports
       << ", \"entry_pc\": \"0x" << std::hex
       << result.cfg.blocks[result.cfg.entryBlock].start << std::dec
       << "\", \"chains\": " << result.dataflow.chains.size()
       << ", \"chain_links\": " << result.dataflow.chainLinks << "}}";
}

void
writeAnalysisText(std::ostream &os, const FlowResult &result,
                  const std::string &name)
{
    lint::writeReportText(os, result.report, name);
    if (result.cfg.blocks.empty())
        return;
    os << "  cfg: " << result.cfg.blocks.size() << " block(s), "
       << result.cfg.edges.size() << " edge(s), " << result.cfg.teleports
       << " teleport(s), " << result.dataflow.chains.size()
       << " def-use chain(s) / " << result.dataflow.chainLinks
       << " link(s)\n";
}

} // namespace flow
} // namespace trb
