#include "lint/lint.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace trb
{
namespace lint
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warn: return "warn";
      case Severity::Error: return "error";
    }
    return "?";
}

bool
LintOptions::resolveRules(std::vector<std::string> &out,
                          std::string &bad_id) const
{
    for (const std::string &id : enable) {
        if (!findRule(id)) {
            bad_id = id;
            return false;
        }
    }
    for (const std::string &id : disable) {
        if (!findRule(id)) {
            bad_id = id;
            return false;
        }
    }
    out.clear();
    for (const RuleInfo &info : ruleCatalog()) {
        if (info.id == alignRuleInfo().id)
            continue;   // the Linter itself owns the pseudo-rule
        if (info.wholeProgram)
            continue;   // CFG rules run in flow::analyzeTrace(), not here
        bool on = enable.empty() ||
                  std::find(enable.begin(), enable.end(), info.id) !=
                      enable.end();
        if (on && std::find(disable.begin(), disable.end(), info.id) !=
                      disable.end())
            on = false;
        if (on)
            out.push_back(info.id);
    }
    return true;
}

std::uint64_t
LintReport::countFor(const std::string &rule) const
{
    for (const RuleCount &rc : counts)
        if (rc.rule == rule)
            return rc.count;
    return 0;
}

// ---------------------------------------------------------------------
// The diagnostic sink: full counting, capped storage.

namespace
{

class CountingSink : public DiagnosticSink
{
  public:
    explicit CountingSink(std::uint64_t cap) : cap_(cap) {}

    void
    report(const RuleInfo &rule, std::uint64_t index, Addr pc,
           std::string message, std::string fix_hint) override
    {
        std::uint64_t &count = counts_[rule.id];
        ++count;
        switch (rule.severity) {
          case Severity::Error: ++errors_; break;
          case Severity::Warn: ++warnings_; break;
          case Severity::Info: ++infos_; break;
        }
        if (count <= cap_) {
            Diagnostic d;
            d.rule = rule.id;
            d.severity = rule.severity;
            d.index = index;
            d.pc = pc;
            d.message = std::move(message);
            d.fixHint = std::move(fix_hint);
            stored_.push_back(std::move(d));
        }
    }

    void
    fill(LintReport &report) const
    {
        report.diagnostics = stored_;
        report.errors = errors_;
        report.warnings = warnings_;
        report.infos = infos_;
        report.counts.clear();
        for (const RuleInfo &info : ruleCatalog()) {
            auto it = counts_.find(info.id);
            if (it == counts_.end() || it->second == 0)
                continue;
            report.counts.push_back({info.id, info.severity, it->second});
        }
    }

  private:
    std::uint64_t cap_;
    std::vector<Diagnostic> stored_;
    std::unordered_map<std::string, std::uint64_t> counts_;
    std::uint64_t errors_ = 0;
    std::uint64_t warnings_ = 0;
    std::uint64_t infos_ = 0;
};

} // namespace

// ---------------------------------------------------------------------
// Linter.

struct Linter::Impl
{
    explicit Impl(const LintOptions &o)
        : opts(o), sink(o.maxDiagnosticsPerRule)
    {
        std::vector<std::string> enabled;
        std::string bad;
        if (!opts.resolveRules(enabled, bad))
            trb_fatal("unknown lint rule '", bad, "'");
        rules = makeRules(enabled, opts.limits);
    }

    LintOptions opts;
    CountingSink sink;
    std::vector<std::unique_ptr<Rule>> rules;
    std::uint64_t units = 0;
    std::uint64_t uops = 0;
    bool paired = false;
    bool finished = false;
};

Linter::Linter(const LintOptions &opts) : impl_(new Impl(opts))
{
}

Linter::~Linter() = default;

void
Linter::add(const CvpRecord &cvp, const ChampSimRecord *uops, unsigned n)
{
    Impl &im = *impl_;
    trb_assert(!im.finished, "Linter::add after finish");
    im.paired = true;
    LintUnit unit;
    unit.cvp = &cvp;
    unit.uops = uops;
    unit.numUops = n;
    unit.index = im.uops;
    for (auto &rule : im.rules)
        rule->check(unit, im.sink);
    ++im.units;
    im.uops += n;
}

void
Linter::add(const ChampSimRecord &uop)
{
    Impl &im = *impl_;
    trb_assert(!im.finished, "Linter::add after finish");
    LintUnit unit;
    unit.uops = &uop;
    unit.numUops = 1;
    unit.index = im.uops;
    for (auto &rule : im.rules)
        rule->check(unit, im.sink);
    ++im.units;
    ++im.uops;
}

LintReport
Linter::finish()
{
    Impl &im = *impl_;
    trb_assert(!im.finished, "Linter::finish called twice");
    im.finished = true;
    for (auto &rule : im.rules)
        rule->finish(im.sink);
    LintReport report;
    report.paired = im.paired;
    report.unitsScanned = im.units;
    report.uopsScanned = im.uops;
    im.sink.fill(report);
    return report;
}

// ---------------------------------------------------------------------
// Whole-trace entry points.

LintReport
lintTrace(const ChampSimTrace &trace, const LintOptions &opts)
{
    Linter linter(opts);
    for (const ChampSimRecord &cs : trace)
        linter.add(cs);
    return linter.finish();
}

LintReport
lintConverted(const CvpTrace &cvp, ChampSimView trace,
              const LintOptions &opts)
{
    Linter linter(opts);

    // Alignment diagnostics are collected separately and merged, since
    // the Linter's sink is internal.
    std::vector<Diagnostic> align;
    std::uint64_t align_count = 0;
    auto misalign = [&](std::uint64_t index, Addr pc, std::string msg) {
        ++align_count;
        if (align_count <= opts.maxDiagnosticsPerRule) {
            Diagnostic d;
            d.rule = alignRuleInfo().id;
            d.severity = alignRuleInfo().severity;
            d.index = index;
            d.pc = pc;
            d.message = std::move(msg);
            align.push_back(std::move(d));
        }
    };

    std::size_t j = 0;
    for (std::size_t i = 0; i < cvp.size(); ++i) {
        const CvpRecord &rec = cvp[i];
        if (j >= trace.size()) {
            misalign(j, rec.pc,
                     "converted stream ends before CVP-1 record " +
                         std::to_string(i));
            break;
        }
        if (trace[j].ip != rec.pc) {
            // Resync: scan a short window for the expected PC; µops we
            // jump over are orphans, CVP records we cannot find were
            // dropped by the conversion.
            constexpr std::size_t kResyncWindow = 4;
            std::size_t found = j;
            bool ok = false;
            for (std::size_t w = 1;
                 w <= kResyncWindow && j + w < trace.size(); ++w) {
                if (trace[j + w].ip == rec.pc) {
                    found = j + w;
                    ok = true;
                    break;
                }
            }
            if (ok) {
                misalign(j, rec.pc,
                         std::to_string(found - j) +
                             " converted record(s) at " +
                             std::to_string(j) +
                             " match no CVP-1 record");
                j = found;
            } else {
                misalign(j, rec.pc,
                         "CVP-1 record at pc " + [&] {
                             std::ostringstream os;
                             os << "0x" << std::hex << rec.pc;
                             return os.str();
                         }() + " has no converted record (found ip 0x" +
                             [&] {
                                 std::ostringstream os;
                                 os << std::hex << trace[j].ip;
                                 return os.str();
                             }() + ")");
                continue;   // skip this CVP record, keep j
            }
        }

        // One µop, or two when the converter split a base-update: the
        // second µop sits at pc+2, which no real (4-byte spaced)
        // instruction can occupy.
        unsigned n = 1;
        if (j + 1 < trace.size() && trace[j + 1].ip == rec.pc + 2 &&
            (i + 1 >= cvp.size() || cvp[i + 1].pc != rec.pc + 2))
            n = 2;
        linter.add(rec, &trace[j], n);
        j += n;
    }
    if (j < trace.size())
        misalign(j, trace[j].ip,
                 std::to_string(trace.size() - j) +
                     " trailing converted record(s) match no CVP-1 "
                     "record");

    LintReport report = linter.finish();
    report.paired = true;
    if (align_count > 0) {
        report.diagnostics.insert(report.diagnostics.end(), align.begin(),
                                  align.end());
        report.counts.push_back({alignRuleInfo().id,
                                 alignRuleInfo().severity, align_count});
        report.errors += align_count;
    }
    return report;
}

// ---------------------------------------------------------------------
// Report rendering.

void
writeReportText(std::ostream &os, const LintReport &report,
                const std::string &name)
{
    os << name << ": " << report.unitsScanned << " units, "
       << report.uopsScanned << " uops ("
       << (report.paired ? "paired" : "stream-only") << "): ";
    if (report.clean() && report.infos == 0) {
        os << "clean\n";
        return;
    }
    os << report.errors << " error(s), " << report.warnings
       << " warning(s), " << report.infos << " note(s)\n";
    for (const RuleCount &rc : report.counts)
        os << "  [" << severityName(rc.severity) << "] " << rc.rule << ": "
           << rc.count << " finding(s)\n";
    for (const Diagnostic &d : report.diagnostics) {
        os << "  #" << d.index << " pc=0x" << std::hex << d.pc << std::dec
           << " [" << d.rule << "] " << d.message;
        if (!d.fixHint.empty())
            os << " (fix: " << d.fixHint << ")";
        os << "\n";
    }
}

void
writeReportJson(std::ostream &os, const LintReport &report,
                const std::string &name)
{
    os << "{\"name\": " << obs::jsonQuote(name)
       << ", \"paired\": " << (report.paired ? "true" : "false")
       << ", \"units\": " << report.unitsScanned
       << ", \"uops\": " << report.uopsScanned << ", \"totals\": {"
       << "\"errors\": " << report.errors
       << ", \"warnings\": " << report.warnings
       << ", \"infos\": " << report.infos << "}, \"rules\": {";
    bool first = true;
    for (const RuleCount &rc : report.counts) {
        if (!first)
            os << ", ";
        first = false;
        os << obs::jsonQuote(rc.rule) << ": {\"severity\": "
           << obs::jsonQuote(severityName(rc.severity))
           << ", \"count\": " << rc.count << "}";
    }
    os << "}, \"diagnostics\": [";
    first = true;
    for (const Diagnostic &d : report.diagnostics) {
        if (!first)
            os << ", ";
        first = false;
        std::ostringstream pc;
        pc << "0x" << std::hex << d.pc;
        os << "{\"rule\": " << obs::jsonQuote(d.rule) << ", \"severity\": "
           << obs::jsonQuote(severityName(d.severity))
           << ", \"index\": " << d.index
           << ", \"pc\": " << obs::jsonQuote(pc.str())
           << ", \"message\": " << obs::jsonQuote(d.message)
           << ", \"fix\": " << obs::jsonQuote(d.fixHint) << "}";
    }
    os << "]}";
}

// ---------------------------------------------------------------------
// The TRB_LINT self-check hook.

bool
lintEnabledFromEnv()
{
    static const bool enabled = env::u64("TRB_LINT", 0) != 0;
    return enabled;
}

std::uint64_t
maybeLintConverted(const std::string &tag, const CvpTrace &cvp,
                   ChampSimView trace)
{
    if (!lintEnabledFromEnv())
        return 0;
    LintOptions opts;
    opts.maxDiagnosticsPerRule = 5;
    LintReport report = lintConverted(cvp, trace, opts);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.addCounter("lint.streams");
    if (!report.clean())
        reg.addCounter("lint.streams_dirty");
    for (const RuleCount &rc : report.counts)
        if (rc.severity != Severity::Info)
            reg.addCounter("lint." + rc.rule + ".violations", rc.count);

    trb_debug("lint[", tag, "]: ", report.errors, " error(s), ",
              report.warnings, " warning(s) over ", report.uopsScanned,
              " uops");
    return report.violations();
}

} // namespace lint
} // namespace trb
