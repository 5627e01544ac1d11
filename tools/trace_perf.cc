/**
 * @file
 * trace_perf -- the perf-regression gate over BENCH run manifests.
 *
 * Compares a baseline trb-bench record (or a directory of them)
 * against a candidate, metric by metric, with per-metric noise
 * thresholds.  Throughput metrics (paths ending in items_per_second)
 * gate; wall-clock rows are reported for context only.
 *
 *   trace_perf base.json cand.json                   # one pair
 *   trace_perf base_dir/ cand_dir/                   # pair BENCH_*.json
 *   trace_perf --threshold 8 base.json cand.json     # global noise band
 *   trace_perf --threshold totals/items_per_second=2 ...   # per metric
 *
 * Exit status: 0 no regression, 1 at least one gated metric regressed
 * (or a comparison was impossible -- schema mismatch, missing files),
 * 2 usage error.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include <dirent.h>

#include "common/json.hh"
#include "obs/perf_compare.hh"

namespace
{

using namespace trb;

void
usage(std::ostream &os)
{
    os << "usage: trace_perf [options] <baseline> <candidate>\n"
          "\n"
          "Diff two BENCH_<name>.json run manifests (or two directories\n"
          "of them, paired by filename) and fail on perf regressions.\n"
          "Throughput metrics (*items_per_second) gate; wall-clock rows\n"
          "are context.\n"
          "\n"
          "options:\n"
          "  --threshold PCT          global noise threshold (default 5)\n"
          "  --threshold METRIC=PCT   override for one flat metric path\n"
          "                           (repeatable)\n"
          "  -h, --help               this text\n"
          "\n"
          "exit: 0 ok, 1 regression or comparison failure, 2 usage\n";
}

bool
isDirectory(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/** BENCH_*.json entries of @p dir, sorted. */
std::vector<std::string>
benchRecordsIn(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.rfind("BENCH_", 0) == 0 &&
            name.size() > 5 && name.ends_with(".json"))
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

bool
loadRecord(const std::string &path, JsonFlat &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "trace_perf: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!parseJson(text.str(), out, &error)) {
        std::cerr << "trace_perf: " << path << ": " << error << "\n";
        return false;
    }
    return true;
}

/** @return 0 ok, 1 regression/failure. */
int
compareFiles(const std::string &base_path, const std::string &cand_path,
             const obs::PerfCompareOptions &opts)
{
    JsonFlat base, cand;
    if (!loadRecord(base_path, base) || !loadRecord(cand_path, cand))
        return 1;
    const obs::PerfCompareResult result =
        obs::comparePerfRecords(base, cand, opts);
    std::cout << "== " << base_path << " vs " << cand_path << "\n";
    obs::renderPerfTable(std::cout, result);
    return result.ok() ? 0 : 1;
}

int
compareDirs(const std::string &base_dir, const std::string &cand_dir,
            const obs::PerfCompareOptions &opts)
{
    const std::vector<std::string> base_names = benchRecordsIn(base_dir);
    const std::vector<std::string> cand_names = benchRecordsIn(cand_dir);
    if (base_names.empty()) {
        std::cerr << "trace_perf: no BENCH_*.json in " << base_dir << "\n";
        return 1;
    }

    int status = 0;
    std::size_t compared = 0;
    for (const std::string &name : base_names) {
        if (std::find(cand_names.begin(), cand_names.end(), name) ==
            cand_names.end()) {
            std::cout << "== " << name
                      << ": missing from candidate, skipped\n";
            continue;
        }
        ++compared;
        if (compareFiles(base_dir + "/" + name, cand_dir + "/" + name,
                         opts) != 0)
            status = 1;
    }
    for (const std::string &name : cand_names)
        if (std::find(base_names.begin(), base_names.end(), name) ==
            base_names.end())
            std::cout << "== " << name
                      << ": new in candidate, no baseline to gate on\n";
    if (compared == 0) {
        std::cerr << "trace_perf: no bench record name shared by both "
                     "directories\n";
        return 1;
    }
    return status;
}

/** Parse "PCT" or "METRIC=PCT" into @p opts; false on a bad number. */
bool
applyThreshold(const std::string &arg, obs::PerfCompareOptions &opts)
{
    const std::size_t eq = arg.rfind('=');
    const std::string number_text =
        eq == std::string::npos ? arg : arg.substr(eq + 1);
    char *end = nullptr;
    const double pct = std::strtod(number_text.c_str(), &end);
    if (!end || *end || number_text.empty() || pct < 0.0)
        return false;
    if (eq == std::string::npos)
        opts.thresholdPercent = pct;
    else
        opts.perMetricThresholdPercent[arg.substr(0, eq)] = pct;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::PerfCompareOptions opts;
    std::vector<std::string> positional;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--threshold") {
            if (++i >= argc || !applyThreshold(argv[i], opts)) {
                std::cerr << "trace_perf: --threshold needs PCT or "
                             "METRIC=PCT\n";
                return 2;
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "trace_perf: unknown option " << arg << "\n";
            usage(std::cerr);
            return 2;
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        usage(std::cerr);
        return 2;
    }

    const std::string &base = positional[0];
    const std::string &cand = positional[1];
    if (isDirectory(base) != isDirectory(cand)) {
        std::cerr << "trace_perf: cannot compare a directory with a "
                     "file\n";
        return 2;
    }
    return isDirectory(base) ? compareDirs(base, cand, opts)
                             : compareFiles(base, cand, opts);
}
