/**
 * @file
 * Tests for the telemetry layer added on top of the metrics registry:
 * the JSON reader (common/json), BENCH run manifests, the time-series
 * sampler, the unified span timeline, worker-pool telemetry counters,
 * and the tty-aware SuiteProgress rendering styles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "experiments/experiment.hh"
#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "par/thread_pool.hh"
#include "synth/suites.hh"

namespace trb
{
namespace
{

/** RAII guard restoring the ambient log level after a test. */
struct LogLevelGuard
{
    LogLevel saved = logLevel();
    ~LogLevelGuard() { setLogLevel(saved); }
};

/** RAII guard: set (or clear) one env var, restore the old value. */
struct EnvGuard
{
    std::string name;
    std::string saved;
    bool wasSet;

    EnvGuard(const char *n, const char *value) : name(n)
    {
        const char *old = getenv(n);
        wasSet = old != nullptr;
        if (wasSet)
            saved = old;
        if (value)
            setenv(n, value, 1);
        else
            unsetenv(n);
    }

    ~EnvGuard()
    {
        if (wasSet)
            setenv(name.c_str(), saved.c_str(), 1);
        else
            unsetenv(name.c_str());
    }
};

// ---- common/json ----

TEST(JsonFlat, ParsesScalarsObjectsAndArrays)
{
    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(R"({
        "schema": "trb-bench-v1",
        "wall_seconds": 1.5,
        "ok": true, "off": false, "nothing": null,
        "totals": {"items": 1000, "items_per_second": 2.5e3},
        "queue": [3, 1, 2],
        "name": "a \"quoted\"\nstring"
    })",
                          doc, &error))
        << error;
    EXPECT_EQ(doc.str("schema"), "trb-bench-v1");
    EXPECT_DOUBLE_EQ(doc.number("wall_seconds"), 1.5);
    EXPECT_DOUBLE_EQ(doc.number("ok"), 1.0);
    EXPECT_DOUBLE_EQ(doc.number("off"), 0.0);
    EXPECT_DOUBLE_EQ(doc.number("totals/items"), 1000.0);
    EXPECT_DOUBLE_EQ(doc.number("totals/items_per_second"), 2500.0);
    EXPECT_DOUBLE_EQ(doc.number("queue/0"), 3.0);
    EXPECT_DOUBLE_EQ(doc.number("queue/2"), 2.0);
    EXPECT_EQ(doc.str("name"), "a \"quoted\"\nstring");
    EXPECT_TRUE(doc.hasNumber("totals/items"));
    EXPECT_FALSE(doc.hasNumber("totals/absent"));
    EXPECT_DOUBLE_EQ(doc.number("totals/absent", -1.0), -1.0);
}

TEST(JsonFlat, RejectsMalformedAndTrailingGarbage)
{
    JsonFlat doc;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", doc, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", doc, &error));
    EXPECT_FALSE(parseJson("", doc, &error));
    EXPECT_FALSE(parseJson("{\"a\": 1", doc, &error));
}

TEST(JsonFlat, NestingDeeperThanTheLimitFails)
{
    // trace_served parses every client frame with this reader, which
    // recurses once per container: a deep document must fail cleanly.
    auto arrays = [](unsigned depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    auto objects = [](unsigned depth) {
        std::string s;
        for (unsigned i = 0; i < depth; ++i)
            s += "{\"k\": ";
        return s + "1" + std::string(depth, '}');
    };
    std::string arrayPath, objectPath;
    for (unsigned i = 0; i < kMaxJsonDepth; ++i) {
        arrayPath += "/0";
        objectPath += i ? "/k" : "k";
    }

    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(arrays(kMaxJsonDepth), doc, &error)) << error;
    EXPECT_DOUBLE_EQ(doc.number(arrayPath, -1.0), 1.0);
    ASSERT_TRUE(parseJson(objects(kMaxJsonDepth), doc, &error)) << error;
    EXPECT_DOUBLE_EQ(doc.number(objectPath, -1.0), 1.0);

    const std::string want =
        "nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels";
    EXPECT_FALSE(parseJson(arrays(kMaxJsonDepth + 1), doc, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(parseJson(objects(kMaxJsonDepth + 1), doc, &error));
    EXPECT_NE(error.find(want), std::string::npos) << error;
}

TEST(JsonFlat, RoundTripsTheMetricsExporter)
{
    obs::MetricsRegistry reg;
    reg.setCounter("a.count", 42);
    reg.setGauge("b.rate", 0.125);
    Histogram &h = reg.histogram("c.lat", 2, 4);
    h.sample(1, 3);
    h.sample(5, 1);

    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(reg.toJson(), doc, &error)) << error;
    EXPECT_DOUBLE_EQ(doc.number("counters/a.count"), 42.0);
    EXPECT_DOUBLE_EQ(doc.number("gauges/b.rate"), 0.125);
    EXPECT_DOUBLE_EQ(doc.number("histograms/c.lat/total"), 4.0);
    EXPECT_TRUE(doc.hasNumber("histograms/c.lat/p95"));
}

// ---- BENCH run manifests ----

TEST(BenchRecord, RendersSchemaPhasesTotalsAndStore)
{
    obs::MetricsRegistry reg;
    reg.setCounter("store.hits", 3);
    reg.setCounter("store.misses", 1);
    reg.setGauge("sweep.All.geomean_delta_percent", -2.5);

    // A trace span around convert + simulate: inclusive seconds nest,
    // self seconds do not.
    obs::PhaseProfile phases;
    phases.add("simulate", 2.0, 2.0, 1000);
    phases.add("convert", 0.5, 0.5, 500);
    phases.add("trace", 2.75, 0.25, 1200);

    std::ostringstream os;
    obs::renderBenchRecord(os, "unit", 4.0, reg, phases);

    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, &error)) << error << "\n"
                                                  << os.str();
    EXPECT_EQ(doc.str("schema"), "trb-bench-v2");
    EXPECT_EQ(doc.str("schema"), obs::kBenchSchema);
    EXPECT_EQ(doc.str("bench"), "unit");
    EXPECT_FALSE(doc.str("host").empty());
    EXPECT_FALSE(doc.str("git_sha").empty());
    EXPECT_DOUBLE_EQ(doc.number("wall_seconds"), 4.0);
    EXPECT_DOUBLE_EQ(doc.number("phases/simulate/seconds"), 2.0);
    EXPECT_DOUBLE_EQ(doc.number("phases/simulate/items_per_second"),
                     500.0);
    EXPECT_DOUBLE_EQ(doc.number("phases/trace/seconds"), 2.75);
    EXPECT_DOUBLE_EQ(doc.number("phases/trace/self_seconds"), 0.25);
    EXPECT_DOUBLE_EQ(doc.number("phases/trace/items"), 1200.0);
    // Totals: self seconds only, and the simulated records alone.
    EXPECT_DOUBLE_EQ(doc.number("totals/phase_seconds"), 2.75);
    EXPECT_DOUBLE_EQ(doc.number("totals/items"), 1000.0);
    EXPECT_DOUBLE_EQ(doc.number("totals/items_per_second"), 250.0);
    EXPECT_DOUBLE_EQ(doc.number("store/hits"), 3.0);
    EXPECT_DOUBLE_EQ(doc.number("store/hit_rate"), 0.75);
    EXPECT_DOUBLE_EQ(
        doc.number("gauges/sweep.All.geomean_delta_percent"), -2.5);
}

TEST(BenchRecord, EnvFingerprintListsOnlySetVars)
{
    EnvGuard len("TRB_TRACE_LEN", "12345");
    EnvGuard scale("TRB_SUITE_SCALE", nullptr);

    obs::MetricsRegistry reg;
    obs::PhaseProfile phases;
    std::ostringstream os;
    obs::renderBenchRecord(os, "unit", 1.0, reg, phases);

    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, &error)) << error;
    EXPECT_EQ(doc.str("env/TRB_TRACE_LEN"), "12345");
    EXPECT_EQ(doc.str("env/TRB_SUITE_SCALE", "<unset>"), "<unset>");
}

TEST(BenchRecord, PathHonoursBenchDir)
{
    {
        EnvGuard dir("TRB_OBS_BENCH_DIR", nullptr);
        EXPECT_EQ(obs::benchRecordPath("fig1"), "./BENCH_fig1.json");
    }
    {
        EnvGuard dir("TRB_OBS_BENCH_DIR", "/tmp/records");
        EXPECT_EQ(obs::benchRecordPath("fig1"),
                  "/tmp/records/BENCH_fig1.json");
    }
    {
        EnvGuard dir("TRB_OBS_BENCH_DIR", "0");
        EXPECT_EQ(obs::benchRecordPath("fig1"), "");
    }
    {
        EnvGuard dir("TRB_OBS_BENCH_DIR", "off");
        EXPECT_EQ(obs::benchRecordPath("fig1"), "");
    }
}

// ---- the time-series sampler ----

TEST(Sampler, DirectDriveEmitsParseableSamples)
{
    obs::Sampler::Options opts;   // periodMs 0: no thread, no file
    obs::Sampler sampler(opts);

    obs::MetricsRegistry::global().setCounter("telemetry.test.count", 7);
    std::ostringstream os;
    sampler.sampleOnce(os);
    sampler.sampleOnce(os);
    EXPECT_EQ(sampler.samplesTaken(), 2u);

    std::istringstream lines(os.str());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
        JsonFlat doc;
        std::string error;
        ASSERT_TRUE(parseJson(line, doc, &error)) << error << "\n" << line;
        EXPECT_EQ(doc.str("schema"), "trb-sample-v1");
        EXPECT_GE(doc.number("t"), 0.0);
#ifdef __linux__
        EXPECT_GT(doc.number("rss_kb"), 0.0);
#endif
        EXPECT_DOUBLE_EQ(doc.number("counters/telemetry.test.count"),
                         7.0);
        ++parsed;
    }
    EXPECT_EQ(parsed, 2u);
}

TEST(Sampler, RateCountsOnlySimulatedRecords)
{
    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    phases.clear();
    obs::Sampler sampler(obs::Sampler::Options{});
    std::ostringstream first;
    sampler.sampleOnce(first);

    // Only the simulate phase's records move the rate; the convert
    // items of the same cells must not be counted a second time.
    phases.add("convert", 0.1, 0.1, 1000000);
    phases.add(obs::kSimulatePhase, 0.1, 0.1, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::ostringstream second;
    sampler.sampleOnce(second);
    phases.clear();

    JsonFlat a, b;
    std::string error;
    ASSERT_TRUE(parseJson(first.str(), a, &error)) << error;
    ASSERT_TRUE(parseJson(second.str(), b, &error)) << error;
    const double dt = b.number("t") - a.number("t");
    ASSERT_GT(dt, 0.0);
    EXPECT_NEAR(b.number("items_per_sec") * dt, 1000.0, 10.0);
}

TEST(Sampler, HeartbeatWritesJsonlAndStopIsIdempotent)
{
    const std::string path =
        testing::TempDir() + "trb_sampler_test.jsonl";
    obs::Sampler::Options opts;
    opts.periodMs = 2;
    opts.path = path;
    {
        obs::Sampler sampler(opts);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        sampler.stop();
        const std::uint64_t after_stop = sampler.samplesTaken();
        EXPECT_GE(after_stop, 1u);   // final sample at minimum
        sampler.stop();              // second stop: no-op
        EXPECT_EQ(sampler.samplesTaken(), after_stop);
    }   // destructor after stop(): also a no-op

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(in, line)) {
        JsonFlat doc;
        std::string error;
        ASSERT_TRUE(parseJson(line, doc, &error)) << error << "\n" << line;
        EXPECT_EQ(doc.str("schema"), "trb-sample-v1");
        ++parsed;
    }
    EXPECT_GE(parsed, 1u);
    std::remove(path.c_str());
}

TEST(Sampler, RssIsPlausible)
{
#ifdef __linux__
    const std::uint64_t rss = obs::Sampler::processRssKb();
    EXPECT_GT(rss, 1024u);            // a C++ test binary exceeds 1 MiB
    EXPECT_LT(rss, 64u * 1024 * 1024);   // ... and stays under 64 GiB
#endif
}

TEST(Sampler, StartFromEnvIsOffByDefault)
{
    EnvGuard ms("TRB_OBS_SAMPLE_MS", nullptr);
    EXPECT_EQ(obs::Sampler::startFromEnv(), nullptr);
}

// ---- the span timeline ----

/** RAII guard: force span collection on/off, re-read env afterwards. */
struct SpanEnableGuard
{
    explicit SpanEnableGuard(bool on)
    {
        obs::SpanTimeline::setEnabledForTests(on ? 1 : 0);
    }
    ~SpanEnableGuard()
    {
        obs::SpanTimeline::global().clear();
        obs::SpanTimeline::setEnabledForTests(-1);
    }
};

TEST(SpanTimeline, DisabledScopesRecordNothing)
{
    SpanEnableGuard guard(false);
    obs::SpanTimeline::global().clear();
    {
        obs::SpanScope outer("outer");
        obs::SpanScope inner("inner");
    }
    EXPECT_EQ(obs::SpanTimeline::global().size(), 0u);
}

TEST(SpanTimeline, DisabledTimelineStillFillsTheTable)
{
    SpanEnableGuard guard(false);
    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    phases.clear();
    obs::SpanTimeline::global().clear();
    for (int i = 0; i < 3; ++i) {
        obs::SpanScope outer("outer");
        obs::SpanScope inner("inner", "t" + std::to_string(i));
        inner.setItems(5);
    }
    const std::vector<obs::PhaseProfile::Entry> rows = phases.entries();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "inner");
    EXPECT_EQ(rows[0].calls, 3u);
    EXPECT_EQ(rows[0].items, 15u);
    EXPECT_EQ(rows[1].name, "outer");
    EXPECT_EQ(rows[1].calls, 3u);
    EXPECT_EQ(obs::SpanTimeline::global().size(), 0u);
    phases.clear();
}

TEST(SpanTimeline, RecordsNestedScopesWithDepth)
{
    SpanEnableGuard guard(true);
    obs::SpanTimeline::global().clear();
    {
        obs::SpanScope outer("outer");
        {
            obs::SpanScope inner("inner");
            inner.setItems(250);
        }
    }
    const std::vector<obs::SpanEvent> spans =
        obs::SpanTimeline::global().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Completion order: inner closes first.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 1u);
    EXPECT_EQ(spans[0].items, 250u);
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].depth, 0u);
    EXPECT_GE(spans[1].durUs, spans[0].durUs);
}

/** Spin for about @p us microseconds of wall time. */
void
burnMicros(double us)
{
    const double until = obs::SpanTimeline::nowUs() + us;
    while (obs::SpanTimeline::nowUs() < until) {
    }
}

TEST(SpanTimeline, NestedSpansCarryDepthAndSelfTime)
{
    SpanEnableGuard guard(true);
    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    phases.clear();
    obs::SpanTimeline::global().clear();
    {
        obs::SpanScope root("root");
        burnMicros(300);
        {
            obs::SpanScope mid("mid");
            burnMicros(300);
            {
                obs::SpanScope leaf("leaf");
                burnMicros(300);
            }
        }
        {
            obs::SpanScope leaf("leaf");
            burnMicros(300);
        }
    }
    const std::vector<obs::SpanEvent> spans =
        obs::SpanTimeline::global().snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Completion order: leaf, mid, leaf, root.
    EXPECT_EQ(spans[0].name, "leaf");
    EXPECT_EQ(spans[0].depth, 2u);
    EXPECT_EQ(spans[1].name, "mid");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[2].name, "leaf");
    EXPECT_EQ(spans[2].depth, 1u);
    EXPECT_EQ(spans[3].name, "root");
    EXPECT_EQ(spans[3].depth, 0u);

    double self_total = 0.0;
    double root_seconds = 0.0, mid_self = 0.0, mid_seconds = 0.0;
    for (const obs::PhaseProfile::Entry &e : phases.entries()) {
        self_total += e.selfSeconds;
        EXPECT_GE(e.selfSeconds, 0.0) << e.name;
        EXPECT_LE(e.selfSeconds, e.seconds) << e.name;
        if (e.name == "root")
            root_seconds = e.seconds;
        if (e.name == "mid") {
            mid_self = e.selfSeconds;
            mid_seconds = e.seconds;
        }
    }
    // The outer span's self time is its duration minus its child's.
    const double leaf_in_mid = spans[0].durUs * 1e-6;
    EXPECT_NEAR(mid_self, mid_seconds - leaf_in_mid, 1e-9);
    EXPECT_NEAR(mid_seconds, spans[1].durUs * 1e-6, 1e-9);
    // Self times never overlap: they add up to the root's duration.
    EXPECT_NEAR(self_total, root_seconds, 1e-9);
    EXPECT_NEAR(root_seconds, spans[3].durUs * 1e-6, 1e-9);
    EXPECT_GT(root_seconds, 1100e-6);
    phases.clear();
}

TEST(SpanTimeline, PhaseSpansLandInTheTimeline)
{
    SpanEnableGuard guard(true);
    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    phases.clear();
    obs::SpanTimeline::global().clear();
    {
        obs::SpanScope span("trace", "srv_7");
        span.setItems(10);
    }
    const std::vector<obs::SpanEvent> spans =
        obs::SpanTimeline::global().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    // The label names the timeline slice; only the name keys the table.
    EXPECT_EQ(spans[0].name, "trace.srv_7");
    EXPECT_STREQ(spans[0].phase, "trace");
    EXPECT_EQ(spans[0].items, 10u);
    const std::vector<obs::PhaseProfile::Entry> rows = phases.entries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "trace");
    EXPECT_EQ(rows[0].items, 10u);
    phases.clear();
}

TEST(SpanTimeline, ChromeTraceIsValidJsonWithWorkerLanes)
{
    SpanEnableGuard guard(true);
    obs::SpanTimeline::global().clear();
    {
        obs::SpanScope sweep("sweep");
        obs::SpanScope trace("trace", "t0");
        trace.setItems(1000);
    }
    std::ostringstream os;
    obs::SpanTimeline::global().writeChromeTrace(os);
    const std::string json = os.str();

    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error << "\n" << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"trace.t0\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    // Wall-clock spans live on pid 0; "cat" is the phase-table name.
    EXPECT_DOUBLE_EQ(doc.number("traceEvents/1/pid", -1.0), 0.0);
    EXPECT_EQ(doc.str("traceEvents/1/name"), "trace.t0");
    EXPECT_EQ(doc.str("traceEvents/1/cat"), "trace");
    EXPECT_DOUBLE_EQ(doc.number("traceEvents/1/args/depth", -1.0), 1.0);
}

// ---- the phase table over a real sweep ----

/** The first @p traces of the CVP-1 suite, short enough for a test. */
std::vector<TraceSpec>
smallSuite(std::size_t traces)
{
    auto full = cvp1PublicSuite(2000);
    return {full.begin(), full.begin() + traces};
}

/** The first three Figure 1 improvement sets. */
std::vector<NamedSet>
threeSets()
{
    return {figureOneSets().begin(), figureOneSets().begin() + 3};
}

/**
 * Sweep four traces on @p jobs workers and check the table against the
 * measured wall time: self seconds fit in wall x jobs, and the manifest
 * headline counts exactly the simulated records.
 */
void
checkSweepTotals(std::size_t jobs)
{
    // Sized before the global pool's first use: under ctest each gtest
    // case is its own process.
    const bool fresh_pool = par::ThreadPool::globalIfStarted() == nullptr;
    EnvGuard jobs_env("TRB_JOBS", std::to_string(jobs).c_str());
    EnvGuard scale("TRB_SUITE_SCALE", nullptr);
    if (fresh_pool) {
        EXPECT_EQ(par::ThreadPool::global().jobs(), jobs);
    }
    const double lanes =
        static_cast<double>(par::ThreadPool::global().jobs());

    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    phases.clear();
    const std::vector<NamedSet> sets = threeSets();
    const auto start = std::chrono::steady_clock::now();
    runImprovementSweep(smallSuite(4), sets, modernConfig());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    double self_total = 0.0;
    double sweep_seconds = 0.0;
    std::uint64_t simulate_calls = 0;
    for (const obs::PhaseProfile::Entry &e : phases.entries()) {
        self_total += e.selfSeconds;
        if (e.name == "sweep")
            sweep_seconds = e.seconds;
        if (e.name == obs::kSimulatePhase)
            simulate_calls = e.calls;
    }
    EXPECT_LE(self_total, wall * lanes);
    EXPECT_EQ(simulate_calls, 4u * (sets.size() + 1));
    if (lanes == 1.0) {
        // One thread: "sweep" is the only root, so the self times
        // telescope to its duration.
        EXPECT_NEAR(self_total, sweep_seconds, 1e-6);
    }

    std::ostringstream os;
    obs::renderBenchRecord(os, "sweep", wall, obs::MetricsRegistry::global(),
                           phases);
    JsonFlat doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, &error)) << error;
    const double items = doc.number("totals/items");
    EXPECT_GT(items, 0.0);
    EXPECT_EQ(items, doc.number("phases/simulate/items"));
    EXPECT_EQ(items, static_cast<double>(phases.items(obs::kSimulatePhase)));
    EXPECT_DOUBLE_EQ(doc.number("totals/items_per_second"), items / wall);
    EXPECT_NEAR(doc.number("totals/phase_seconds"), self_total, 1e-9);
    EXPECT_LE(doc.number("totals/phase_seconds"), wall * lanes);
    phases.clear();
}

TEST(PhaseTable, SweepSelfSecondsFitWallTimeAtOneJob)
{
    checkSweepTotals(1);
}

TEST(PhaseTable, SweepSelfSecondsFitWallTimeAtFourJobs)
{
    checkSweepTotals(4);
}

TEST(PhaseTable, RowCountDoesNotGrowWithTraces)
{
    EnvGuard scale("TRB_SUITE_SCALE", nullptr);
    SpanEnableGuard guard(true);   // labels reach the timeline only
    obs::PhaseProfile &phases = obs::PhaseProfile::global();
    const std::vector<NamedSet> sets = threeSets();

    phases.clear();
    runImprovementSweep(smallSuite(2), sets, modernConfig());
    const std::size_t rows_for_two = phases.entries().size();

    phases.clear();
    runImprovementSweep(smallSuite(6), sets, modernConfig());
    const std::vector<obs::PhaseProfile::Entry> rows = phases.entries();
    EXPECT_EQ(rows.size(), rows_for_two);
    for (const obs::PhaseProfile::Entry &e : rows) {
        if (e.name == "trace") {
            EXPECT_EQ(e.calls, 6u);
        }
    }
    phases.clear();
}

// ---- worker-pool telemetry and flush-on-exception ----

TEST(ThreadPoolTelemetry, QueueDepthsMatchJobsAndDrainToZero)
{
    par::ThreadPool pool(4);
    EXPECT_EQ(pool.queueDepths().size(), 4u);
    std::atomic<std::size_t> ran{0};
    pool.parallelFor(64, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 64u);
    for (std::size_t depth : pool.queueDepths())
        EXPECT_EQ(depth, 0u);
}

TEST(ThreadPoolTelemetry, UnevenWorkProducesSteals)
{
    par::ThreadPool pool(4);
    // Front-loaded work: worker 0 seeds everything, thieves must steal.
    std::atomic<std::size_t> ran{0};
    pool.parallelFor(256, [&](std::size_t i) {
        volatile double sink = 0;
        for (std::size_t k = 0; k < (i % 7) * 1000; ++k)
            sink = sink + 1.0;
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 256u);
    // Steals are schedule-dependent; with 4 threads and 256 tasks at
    // least one steal is overwhelmingly likely, but assert only the
    // invariant: the counter never exceeds the tasks run.
    EXPECT_LE(pool.stealCount(), 256u);
}

TEST(ThreadPoolTelemetry, GlobalIfStartedSeesTheGlobalPool)
{
    par::ThreadPool &pool = par::ThreadPool::global();
    EXPECT_EQ(par::ThreadPool::globalIfStarted(), &pool);
}

TEST(ThreadMetricsBuffer, FlushesOnExceptionUnderParallelism)
{
    obs::MetricsRegistry reg;
    par::ThreadPool pool(4);
    constexpr std::size_t kTasks = 100;
    bool threw = false;
    try {
        pool.parallelFor(kTasks, [&](std::size_t i) {
            obs::ThreadMetricsBuffer buf(reg);
            buf.add("telemetry.increments", 1);
            if (i == 37)
                throw std::runtime_error("injected task failure");
        });
    } catch (const std::runtime_error &) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    // The throwing task's buffer flushed during unwinding; nothing was
    // lost and nothing double-counted.
    EXPECT_EQ(reg.counterValue("telemetry.increments"), kTasks);
}

// ---- SuiteProgress rendering styles ----

TEST(SuiteProgress, SparseStyleEmitsMilestoneLinesWithoutCr)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    {
        obs::SuiteProgress progress("sparse-suite", 20,
                                    obs::SuiteProgress::Style::Sparse);
        for (std::size_t i = 0; i < 20; ++i)
            progress.step(i, 100);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find('\r'), std::string::npos);
    EXPECT_EQ(err.find("\033"), std::string::npos);
    // total/10 stride: milestones at 2,4,...,20 plus the summary line.
    std::size_t lines = 0;
    for (char c : err)
        lines += c == '\n';
    EXPECT_EQ(lines, 11u);
    EXPECT_NE(err.find("sparse-suite: 20/20"), std::string::npos);
}

TEST(SuiteProgress, LiveStyleRedrawsWithCarriageReturns)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    {
        obs::SuiteProgress progress("live-suite", 4,
                                    obs::SuiteProgress::Style::Live);
        for (std::size_t i = 0; i < 4; ++i)
            progress.step(i, 100);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find('\r'), std::string::npos);
    EXPECT_NE(err.find("live-suite: 4/4 (100%)"), std::string::npos);
    // The destructor erased the progress line before the summary.
    EXPECT_NE(err.find("\033[2K"), std::string::npos);
}

TEST(SuiteProgress, SilentStyleOnlySummarises)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    {
        obs::SuiteProgress progress("silent-suite", 8,
                                    obs::SuiteProgress::Style::Silent);
        for (std::size_t i = 0; i < 8; ++i)
            progress.step(i, 100);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    std::size_t lines = 0;
    for (char c : err)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u);   // just the end-of-suite summary
}

TEST(SuiteProgress, StyleFromEnvironmentIsSparseWhenNotATty)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::Info);
    // Capture redirects stderr to a file, so it is never a terminal
    // here whatever ctest or a developer shell did with the fds.
    testing::internal::CaptureStderr();
    const obs::SuiteProgress::Style at_info =
        obs::SuiteProgress::styleFromEnvironment();
    setLogLevel(LogLevel::Warn);
    const obs::SuiteProgress::Style at_warn =
        obs::SuiteProgress::styleFromEnvironment();
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(at_info, obs::SuiteProgress::Style::Sparse);
    EXPECT_EQ(at_warn, obs::SuiteProgress::Style::Silent);
}

} // namespace
} // namespace trb
