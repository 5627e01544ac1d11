/**
 * @file
 * trb_bench: the repository benchmark's binary.
 *
 *   trb_bench --workload fig1-cold|ipc1-ipref|serve-mixed --seed N
 *             --seconds S --trace 0|1 --reference perfbench/reference.json
 *             --workdir DIR [--flip-bit] [--refuse-connect]
 *   trb_bench --write-reference perfbench/reference.json
 *
 * Prints a human-readable report and, as the last line of stdout, one
 * JSON object {correct, attempted, failed, metrics}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.  Exit
 * status 0 = every result checked out, 1 = a result mismatched, 2 = bad
 * usage or a run that could not be set up.  perfbench/run.py builds
 * this binary and is the command BENCHMARK.json names.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "ipref/instr_prefetcher.hh"

extern char **environ;

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"sim_minstr_per_s", "Minstr/s"},
        {"req_per_s", "1/s"},
        {"p50_ms", "ms"},
        {"p90_ms", "ms"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"synth.generate_ms", "ms"},
            {"synth.minstr_per_s", "Minstr/s"},
            {"convert.convert_ms", "ms"},
            {"convert.minstr_per_s", "Minstr/s"},
            {"convert.uops_per_instr", "ratio"},
            {"pipeline.run_ms", "ms"},
            {"pipeline.minstr_per_s", "Minstr/s"},
            {"pipeline.wall_share", "share"},
            {"cache.l1i.apki", "pki"},
            {"cache.l1d.apki", "pki"},
            {"cache.l2.apki", "pki"},
            {"cache.llc.apki", "pki"},
            {"cache.l1i.miss_ratio", "ratio"},
            {"cache.l1d.miss_ratio", "ratio"},
            {"cache.mshr_merges_pki", "pki"},
            {"cache.prefetches_pki", "pki"},
            {"cache.replay_ns_per_access", "ns"},
            {"uarch.branches_pki", "pki"},
            {"uarch.mispredicts_pki", "pki"},
            {"uarch.tage.replay_ns", "ns"},
            {"uarch.ittage.replay_ns", "ns"},
            {"uarch.btb.replay_ns", "ns"},
        };
        for (const std::string &pf : trb::ipc1PrefetcherNames())
            d.push_back({"ipref." + pf + ".run_overhead", "ratio"});
        const std::vector<MetricDef> rest = {
            {"ipref.prefetches_pki", "pki"},
            {"store.digest_ms", "ms"},
            {"store.lookup_ms", "ms"},
            {"store.put_ms", "ms"},
            {"store.hit_ratio", "ratio"},
            {"store.lookups", "count"},
            {"store.bytes_per_cold", "bytes"},
            {"serve.overhead_ms", "ms"},
            {"serve.rejected_busy", "count"},
            {"serve.timeouts", "count"},
            {"serve.warm_p50_ms", "ms"},
            {"serve.warm_p99_ms", "ms"},
            {"serve.cold_p50_ms", "ms"},
            {"serve.cold_p90_ms", "ms"},
            {"serve.warm_samples", "count"},
            {"serve.cold_samples", "count"},
            {"par.steals_per_kreq", "1/kreq"},
            {"par.max_queue_depth", "count"},
            {"experiments.harness_ms", "ms"},
            {"trace.overhead_share", "share"},
            {"trace.unattributed_share", "share"},
            {"trace.spans", "count"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

void
RowDigest::add(const std::vector<std::uint64_t> &bits)
{
    hasher_.update(bits.data(), bits.size() * sizeof(std::uint64_t));
}

void
RowDigest::add(std::uint64_t word)
{
    hasher_.update(&word, sizeof(word));
}

void
RowDigest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

void
flipOneBit(trb::SimStats &stats)
{
    stats.cycles ^= 1;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    trb::Rng rng(seed ^ 0x5eedb0a7c0ffeeULL);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
rotateCpu(long turn)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof(set), &set);
        return set;
    }();
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                v.push_back(c);
        return v;
    }();
    if (turn < 0 || cpus.empty()) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
        return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KiB -> MiB
}

bool
loadReference(const std::string &path, Reference &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    trb::JsonFlat flat;
    if (!trb::parseJson(text.str(), flat, &error))
        return false;
    // Paths are rows/<workload>/<key>/{digest,records}.
    for (const auto &[path_, digest] : flat.strings) {
        const std::string prefix = "rows/";
        const std::string suffix = "/digest";
        if (path_.rfind(prefix, 0) != 0 || path_.size() <= suffix.size() ||
            path_.compare(path_.size() - suffix.size(), suffix.size(),
                          suffix) != 0)
            continue;
        const std::string mid = path_.substr(
            prefix.size(), path_.size() - prefix.size() - suffix.size());
        const std::size_t slash = mid.find('/');
        if (slash == std::string::npos)
            continue;
        RowRef &row = out[mid.substr(0, slash)][mid.substr(slash + 1)];
        row.digest = digest;
        row.records = static_cast<std::uint64_t>(
            flat.number(path_.substr(0, path_.size() - suffix.size()) +
                        "/records"));
    }
    if (out.empty()) {
        error = path + " holds no reference rows";
        return false;
    }
    return true;
}

bool
saveReference(const std::string &path, const Reference &ref)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"trb-perfbench-reference-v1\",\n  \"rows\": {";
    bool firstWl = true;
    for (const auto &[workload, rows] : ref) {
        out << (firstWl ? "\n" : ",\n") << "    \"" << workload << "\": {";
        firstWl = false;
        bool first = true;
        for (const auto &[key, row] : rows) {
            out << (first ? "\n" : ",\n") << "      \"" << key
                << "\": {\"digest\": \"" << row.digest
                << "\", \"records\": " << row.records << "}";
            first = false;
        }
        out << "\n    }";
    }
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
}

namespace
{

/**
 * Isolate the run from the caller's shell: drop every TRB_* variable,
 * then pin the ones that shape what is measured (one worker for the
 * sweeps, warnings-only logging).  Runs before any library code reads
 * the environment.
 */
void
isolateEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const char *eq = std::strchr(*e, '=');
        if (std::strncmp(*e, "TRB_", 4) == 0 && eq)
            names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("TRB_JOBS", "1", 1);
    setenv("TRB_LOG", "warn", 1);
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "trb_bench: %s\n"
                 "usage: trb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE --workdir DIR [--flip-bit] "
                 "[--refuse-connect]\n"
                 "       trb_bench --write-reference FILE\n",
                 msg);
    return 2;
}

void
printJson(const Report &report, const std::vector<MetricDef> &defs)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    bool first = true;
    for (const MetricDef &m : defs) {
        auto it = report.values.find(m.name);
        const double v = it == report.values.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(),
                    std::isfinite(v) ? v : 0.0, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    isolateEnvironment();

    Options opt;
    std::string writeRef;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (a == "--trace") {
            opt.trace = value() == "1";
            haveTrace = true;
        } else if (a == "--reference")
            opt.reference = value();
        else if (a == "--workdir")
            opt.workDir = value();
        else if (a == "--flip-bit")
            opt.flipBit = true;
        else if (a == "--refuse-connect")
            opt.refuseConnect = true;
        else if (a == "--write-reference")
            writeRef = value();
        else
            return usage(("unknown argument " + a).c_str());
    }

    try {
        if (!writeRef.empty()) {
            Reference ref;
            buildSweepReference(ref);
            buildServeReference(ref);
            if (!saveReference(writeRef, ref))
                return usage(("cannot write " + writeRef).c_str());
            std::fprintf(stderr, "wrote %s\n", writeRef.c_str());
            return 0;
        }

        if (opt.workload.empty() || opt.reference.empty() ||
            opt.workDir.empty() || !haveTrace || !(opt.seconds > 0))
            return usage("missing or invalid arguments");
        Reference ref;
        std::string error;
        if (!loadReference(opt.reference, ref, error))
            return usage(error.c_str());
        std::filesystem::create_directories(opt.workDir);

        Report report;
        if (opt.workload == "fig1-cold")
            runFig1Cold(opt, ref, report);
        else if (opt.workload == "ipc1-ipref")
            runIpc1Ipref(opt, ref, report);
        else if (opt.workload == "serve-mixed")
            runServeMixed(opt, ref, report);
        else
            return usage(("unknown workload " + opt.workload).c_str());

        const std::vector<MetricDef> &defs =
            opt.trace ? perLayerMetrics() : endToEndMetrics();
        std::printf("== %s seed %llu, %s run ==\n", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    opt.trace ? "traced" : "untraced");
        for (const MetricDef &m : defs) {
            auto it = report.values.find(m.name);
            std::printf("  %-30s %16.6f %s\n", m.name.c_str(),
                        it == report.values.end() ? 0.0 : it->second,
                        m.unit.c_str());
        }
        for (const std::string &n : report.notes)
            std::printf("  # %s\n", n.c_str());
        std::printf("  # fail_frac %llu / %llu\n",
                    static_cast<unsigned long long>(report.failed),
                    static_cast<unsigned long long>(report.attempted));
        printJson(report, defs);
        std::fflush(stdout);
        return report.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trb_bench: %s\n", e.what());
        return 2;
    }
}
