/**
 * @file
 * trace_lint -- the trb::lint / trb::flow command-line front-end.
 *
 * Statically checks converted ChampSim traces (and, when the originating
 * CVP-1 stream is given, the conversion itself) against the invariants a
 * fully improved cvp2champsim conversion guarantees: the streaming rules
 * first, then -- when the rule selection keeps any -- the CFG-aware
 * whole-program rules the linear scan cannot express.  No simulation
 * runs.
 *
 *   trace_lint trace.champsim.gz                  # stream-only rules
 *   trace_lint --cvp orig.cvp.gz trace.champsim.gz   # paired
 *   trace_lint suite:cvp1:srv_web                 # a served suite entry
 *   trace_lint preset:int:7 --imp No_imp          # a synth preset
 *   trace_lint file:orig.cvp.gz                   # a CVP-1 file, paired
 *   trace_lint --synth cvp1                       # the whole suite
 *   trace_lint --list-rules                       # rule catalog
 *
 * Spec arguments (suite:/preset:/file:, the trb::serve grammar) resolve
 * to a CVP-1 stream which is converted with --imp and checked paired;
 * bare paths are read as ChampSim traces and checked stream-only.
 *
 * Multiple inputs are checked in parallel on trb::par's global pool
 * (TRB_JOBS threads); reports are index-addressed, so output order always
 * matches input order.  The --synth mode fans out through the experiment
 * harness's forEachTrace(), exactly like the bench binaries.  All output
 * is bit-identical at any TRB_JOBS.
 *
 * Exit status: 0 clean (relative to --fail-on), 1 findings at or above
 * the --fail-on threshold, 2 usage error or unreadable/corrupt input
 * (one-line diagnostic on stderr, never a crash).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "convert/cvp2champsim.hh"
#include "convert/improvements.hh"
#include "experiments/experiment.hh"
#include "flow/analyze.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "serve/protocol.hh"
#include "synth/suites.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace
{

using namespace trb;

enum class FailOn
{
    None,
    Warn,
    Error,
};

struct CliOptions
{
    std::vector<std::string> inputs;   //!< positional traces or specs
    std::vector<std::string> cvps;     //!< --cvp files, paired by position
    std::string synthSuite;            //!< "cvp1" or "ipc1" (empty: inputs)
    ImprovementSet imps = kAllImps;    //!< converter config for specs
    std::uint64_t length = 50000;      //!< synthetic spec length
    lint::LintOptions lintOpts;
    FailOn failOn = FailOn::Error;
    std::string jsonPath;              //!< "-" for stdout
    bool json = false;
    bool listRules = false;
};

void
usage(std::ostream &os)
{
    os << "usage: trace_lint [options] <trace.champsim[.gz] | spec>...\n"
          "       trace_lint [options] --synth cvp1|ipc1 [--imp SET]\n"
          "       trace_lint --list-rules\n"
          "\n"
          "Statically check converted ChampSim traces against the\n"
          "invariants of a fully improved CVP-1 conversion (no simulation).\n"
          "A spec is suite:cvp1:<name>, suite:ipc1:<name>,\n"
          "preset:<kind>:<seed> or file:<path> (a CVP-1 trace), resolved\n"
          "and converted before a paired check; a bare path is a ChampSim\n"
          "trace, checked stream-only.  The whole-program rules build the\n"
          "trace's CFG, so they run only when selected.\n"
          "\n"
          "options:\n"
          "  --cvp FILE        originating CVP-1 trace for the Nth\n"
          "                    positional trace (repeatable); enables the\n"
          "                    paired rules\n"
          "  --synth SUITE     check conversions of the synthetic cvp1 or\n"
          "                    ipc1 suite instead of inputs\n"
          "  --imp SET         improvement set for specs/--synth (No_imp,\n"
          "                    Memory_imps, Branch_imps, All_imps,\n"
          "                    IPC1_imps, imp_*; default All_imps)\n"
          "  --length N        dynamic instructions for synthetic specs\n"
          "                    and --synth (default 50000)\n"
          "  --enable LIST     comma-separated rule ids to run (default\n"
          "                    all, streaming and whole-program)\n"
          "  --disable LIST    comma-separated rule ids to skip\n"
          "  --max-diag N      diagnostics stored per rule (default 20)\n"
          "  --fail-on KIND    error|warn|none: lowest severity that\n"
          "                    fails the run (default error)\n"
          "  --json[=FILE]     machine-readable report to FILE (default\n"
          "                    stdout)\n"
          "  --list-rules      print the rule catalog and exit\n"
          "  -h, --help        this text\n";
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
isSpec(const std::string &arg)
{
    return arg.rfind("suite:", 0) == 0 || arg.rfind("preset:", 0) == 0 ||
           arg.rfind("file:", 0) == 0;
}

/** Parse argv; returns false (after printing to stderr) on bad usage. */
bool
parseArgs(int argc, char **argv, CliOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "trace_lint: " << name
                          << " needs an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            std::exit(0);
        } else if (arg == "--list-rules") {
            opts.listRules = true;
        } else if (arg == "--cvp") {
            const char *v = value("--cvp");
            if (!v)
                return false;
            opts.cvps.push_back(v);
        } else if (arg == "--synth") {
            const char *v = value("--synth");
            if (!v)
                return false;
            opts.synthSuite = v;
            if (opts.synthSuite != "cvp1" && opts.synthSuite != "ipc1") {
                std::cerr << "trace_lint: --synth takes cvp1 or ipc1, got '"
                          << opts.synthSuite << "'\n";
                return false;
            }
        } else if (arg == "--imp") {
            const char *v = value("--imp");
            if (!v)
                return false;
            if (!parseImprovementSet(v, opts.imps)) {
                std::cerr << "trace_lint: unknown improvement set '" << v
                          << "'\n";
                return false;
            }
        } else if (arg == "--length") {
            const char *v = value("--length");
            if (!v)
                return false;
            opts.length = std::strtoull(v, nullptr, 10);
        } else if (arg == "--enable") {
            const char *v = value("--enable");
            if (!v)
                return false;
            for (auto &id : splitList(v))
                opts.lintOpts.enable.push_back(id);
        } else if (arg == "--disable") {
            const char *v = value("--disable");
            if (!v)
                return false;
            for (auto &id : splitList(v))
                opts.lintOpts.disable.push_back(id);
        } else if (arg == "--max-diag") {
            const char *v = value("--max-diag");
            if (!v)
                return false;
            opts.lintOpts.maxDiagnosticsPerRule =
                std::strtoull(v, nullptr, 10);
        } else if (arg.rfind("--fail-on", 0) == 0) {
            std::string v;
            if (arg.size() > 9 && arg[9] == '=') {
                v = arg.substr(10);
            } else {
                const char *p = value("--fail-on");
                if (!p)
                    return false;
                v = p;
            }
            if (v == "error") {
                opts.failOn = FailOn::Error;
            } else if (v == "warn") {
                opts.failOn = FailOn::Warn;
            } else if (v == "none") {
                opts.failOn = FailOn::None;
            } else {
                std::cerr << "trace_lint: --fail-on takes error, warn or "
                             "none, got '" << v << "'\n";
                return false;
            }
        } else if (arg.rfind("--json", 0) == 0) {
            opts.json = true;
            opts.jsonPath =
                (arg.size() > 6 && arg[6] == '=') ? arg.substr(7) : "-";
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "trace_lint: unknown option '" << arg << "'\n";
            return false;
        } else {
            opts.inputs.push_back(arg);
        }
    }

    std::string bad;
    std::vector<std::string> resolved;
    if (!opts.lintOpts.resolveRules(resolved, bad)) {
        std::cerr << "trace_lint: unknown rule '" << bad
                  << "' (see --list-rules)\n";
        return false;
    }
    if (opts.listRules)
        return true;
    if (!opts.synthSuite.empty() && !opts.inputs.empty()) {
        std::cerr << "trace_lint: --synth and inputs are mutually "
                     "exclusive\n";
        return false;
    }
    if (opts.synthSuite.empty() && opts.inputs.empty()) {
        usage(std::cerr);
        return false;
    }
    if (opts.cvps.size() > opts.inputs.size()) {
        std::cerr << "trace_lint: more --cvp files than inputs\n";
        return false;
    }
    return true;
}

void
listRules()
{
    for (const lint::RuleInfo &info : lint::ruleCatalog()) {
        std::cout << info.id << " [" << lint::severityName(info.severity)
                  << (info.needsCvp ? ", paired" : "")
                  << (info.wholeProgram ? ", whole-program" : "") << "]\n    "
                  << info.summary << "\n    (" << info.citation << ")\n";
    }
}

/** One check job and its index-addressed result. */
struct Job
{
    std::size_t index = 0;
    std::string name;
    std::string input;     //!< ChampSim path or serve spec
    std::string cvpPath;   //!< empty: stream-only (paths only)
};

int
runInputs(const CliOptions &opts, std::vector<std::string> &names,
          std::vector<flow::FlowResult> &results)
{
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < opts.inputs.size(); ++i) {
        Job job;
        job.index = i;
        job.input = opts.inputs[i];
        job.name = opts.inputs[i];
        if (i < opts.cvps.size())
            job.cvpPath = opts.cvps[i];
        jobs.push_back(std::move(job));
    }

    // Index-addressed fan-out: result i always belongs to input i, so
    // the output is schedule-independent.  Unreadable or corrupt inputs
    // land a Status in their slot instead of killing the process; the
    // first (in input order) is reported after the joins.
    std::vector<Status> failed(jobs.size());
    results = par::ThreadPool::global().parallelMap(
        jobs, [&](const Job &job) {
            if (isSpec(job.input)) {
                serve::ServeRequest req;
                req.trace = job.input;
                req.length = opts.length;
                Expected<CvpTrace> cvp = serve::resolveTrace(req);
                if (!cvp.ok()) {
                    failed[job.index] = cvp.status();
                    return flow::FlowResult{};
                }
                Cvp2ChampSim conv(opts.imps);
                ChampSimTrace cs = conv.convert(cvp.value());
                return flow::analyzeConverted(cvp.value(), cs,
                                              opts.lintOpts);
            }
            Expected<ChampSimTrace> cs = tryReadChampSimTrace(job.input);
            if (!cs.ok()) {
                failed[job.index] = cs.status();
                return flow::FlowResult{};
            }
            if (job.cvpPath.empty())
                return flow::analyzeTrace(cs.value(), opts.lintOpts);
            Expected<CvpTrace> cvp = tryReadCvpTrace(job.cvpPath);
            if (!cvp.ok()) {
                failed[job.index] = cvp.status();
                return flow::FlowResult{};
            }
            return flow::analyzeConverted(cvp.value(), cs.value(),
                                          opts.lintOpts);
        });
    for (const Status &status : failed) {
        if (!status.ok()) {
            std::cerr << "trace_lint: " << status.toString() << "\n";
            return 2;
        }
    }
    for (const Job &job : jobs)
        names.push_back(job.name);
    return 0;
}

int
runSynth(const CliOptions &opts, std::vector<std::string> &names,
         std::vector<flow::FlowResult> &results)
{
    std::vector<TraceSpec> suite = opts.synthSuite == "cvp1"
                                       ? cvp1PublicSuite(opts.length)
                                       : ipc1Suite(opts.length);
    std::size_t count = suiteCount(suite);
    names.resize(count);
    results.resize(count);
    forEachTrace(suite, [&](std::size_t i, const TraceSpec &spec,
                            const CvpTrace &cvp) {
        Cvp2ChampSim conv(opts.imps);
        ChampSimTrace cs = conv.convert(cvp);
        names[i] = spec.name;
        results[i] = flow::analyzeConverted(cvp, cs, opts.lintOpts);
    });
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 2;
    if (opts.listRules) {
        listRules();
        return 0;
    }

    std::vector<std::string> names;
    std::vector<flow::FlowResult> results;
    int rc = opts.synthSuite.empty() ? runInputs(opts, names, results)
                                     : runSynth(opts, names, results);
    if (rc != 0)
        return rc;

    std::uint64_t errors = 0;
    std::uint64_t warnings = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        errors += results[i].report.errors;
        warnings += results[i].report.warnings;
        flow::writeAnalysisText(std::cout, results[i], names[i]);
    }
    if (results.size() > 1)
        std::cout << "total: " << errors << " error(s), " << warnings
                  << " warning(s) across " << results.size()
                  << " trace(s)\n";

    if (opts.json) {
        std::ofstream file;
        std::ostream *os = &std::cout;
        if (opts.jsonPath != "-") {
            file.open(opts.jsonPath);
            if (!file) {
                std::cerr << "trace_lint: cannot write '" << opts.jsonPath
                          << "'\n";
                return 2;
            }
            os = &file;
        }
        *os << "{\"reports\": [";
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i)
                *os << ", ";
            flow::writeAnalysisJson(*os, results[i], names[i]);
        }
        *os << "], \"totals\": {\"errors\": " << errors
            << ", \"warnings\": " << warnings << "}}\n";
    }

    obs::finish();   // honour TRB_OBS_JSON / TRB_OBS_CSV / TRB_OBS_SPANS

    switch (opts.failOn) {
      case FailOn::Error:
        return errors > 0 ? 1 : 0;
      case FailOn::Warn:
        return errors + warnings > 0 ? 1 : 0;
      case FailOn::None:
        return 0;
    }
    return 0;
}
