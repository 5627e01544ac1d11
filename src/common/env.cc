#include "common/env.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace trb
{
namespace env
{

const std::vector<VarInfo> &
registry()
{
    // Alphabetical; every entry must have a row in docs/env-vars.md
    // (enforced by tests/test_common.cc and tools/repo_lint.py).
    static const std::vector<VarInfo> vars = {
        {"TRB_FAILURE_REPORT", "write the quarantine report JSON here"},
        {"TRB_FAULT", "deterministic fault injection spec (kind:rate,...)"},
        {"TRB_FAULT_SEED", "seed for the fault-injection draw"},
        {"TRB_JOBS", "worker threads; 1 = exact serial path"},
        {"TRB_LINT", "lint every conversion before simulating it"},
        {"TRB_LOG", "log level: silent/warn/info/debug/trace or 0-4"},
        {"TRB_OBS_BENCH_DIR", "BENCH_<name>.json manifest directory"
                              " (default .; 0/off disables)"},
        {"TRB_OBS_CSV", "write the metrics registry as CSV here at exit"},
        {"TRB_OBS_JSON", "write the metrics registry as JSON here at exit"},
        {"TRB_OBS_SAMPLE_MS", "metrics sampler heartbeat period in ms"
                              " (0/unset: off)"},
        {"TRB_OBS_SAMPLE_PATH", "sampler JSONL output file"},
        {"TRB_OBS_SPANS", "write the span timeline's Chrome trace here"
                          " at exit"},
        {"TRB_PIPE_JSON", "write a Chrome trace of the pipeline here"},
        {"TRB_RETRIES", "attempts for transient I/O failures"},
        {"TRB_SERVE_DEADLINE_MS", "trace_client default per-request"
                                  " deadline in ms (0/unset: none)"},
        {"TRB_SERVE_QUEUE", "daemon queue bound; beyond it requests get"
                            " a typed busy reply"},
        {"TRB_SERVE_SOCKET", "trace_served Unix-domain socket path"},
        {"TRB_SERVE_WRITE_MS", "daemon per-reply peer-readiness bound"
                               " in ms (0: block indefinitely)"},
        {"TRB_STORE", "content-addressed artifact cache directory"},
        {"TRB_SUITE_SCALE", "fraction (0,1] of each trace suite to run"},
        {"TRB_TRACE_BUF", "pipeline event tracer ring capacity"},
        {"TRB_TRACE_LEN", "instructions per synthetic trace"},
    };
    return vars;
}

bool
isRegistered(const char *name)
{
    for (const VarInfo &var : registry())
        if (std::strcmp(var.name, name) == 0)
            return true;
    return false;
}

const char *
raw(const char *name)
{
    if (!isRegistered(name))
        trb_fatal("environment variable ", name,
                  " is not in the trb::env registry -- add it to "
                  "common/env.cc and docs/env-vars.md");
    return std::getenv(name);
}

std::uint64_t
u64(const char *name, std::uint64_t def)
{
    const char *value = raw(name);
    if (!value || !*value)
        return def;
    char *end = nullptr;
    std::uint64_t parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        trb_fatal("environment variable ", name, "='", value,
                  "' is not an integer");
    return parsed;
}

double
number(const char *name, double def)
{
    const char *value = raw(name);
    if (!value || !*value)
        return def;
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0')
        trb_fatal("environment variable ", name, "='", value,
                  "' is not a number");
    return parsed;
}

std::string
str(const char *name, const std::string &def)
{
    const char *value = raw(name);
    if (!value || !*value)
        return def;
    return value;
}

bool
flag(const char *name)
{
    const char *value = raw(name);
    return value && *value && std::strcmp(value, "0") != 0;
}

} // namespace env

std::uint64_t
traceLengthFromEnv(std::uint64_t def)
{
    std::uint64_t len = env::u64("TRB_TRACE_LEN", def);
    if (len < 1000)
        trb_fatal("TRB_TRACE_LEN must be at least 1000, got ", len);
    return len;
}

double
suiteScaleFromEnv(double def)
{
    double scale = env::number("TRB_SUITE_SCALE", def);
    if (scale <= 0.0 || scale > 1.0)
        trb_fatal("TRB_SUITE_SCALE must be in (0, 1], got ", scale);
    return scale;
}

} // namespace trb
