/**
 * @file
 * Tests for the observability library: metrics-registry semantics and
 * JSON/CSV export round-trips (parsed back with a minimal JSON reader),
 * pipeline-tracer ring-buffer wraparound and exporters, TRB_LOG level
 * filtering, and phase-profiler accumulation.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/pipeline_trace.hh"
#include "obs/profile.hh"
#include "obs/span.hh"

namespace trb
{
namespace
{

// ---- A minimal JSON reader for the subset the exporters emit:
// objects, arrays, strings, numbers.  Flattens to path -> number.

struct JsonReader
{
    const std::string &text;
    std::size_t pos = 0;
    std::map<std::string, double> values;

    explicit JsonReader(const std::string &t) : text(t) {}

    void
    skipWs()
    {
        while (pos < text.size() && std::isspace(
                   static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    expect(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\' && pos + 1 < text.size())
                ++pos;
            out.push_back(text[pos++]);
        }
        return expect('"');
    }

    bool
    parseValue(const std::string &path)
    {
        char c = peek();
        if (c == '{') {
            ++pos;
            if (peek() == '}')
                return expect('}');
            do {
                std::string key;
                if (!parseString(key) || !expect(':'))
                    return false;
                if (!parseValue(path.empty() ? key : path + "/" + key))
                    return false;
            } while (expect(','));
            return expect('}');
        }
        if (c == '[') {
            ++pos;
            std::size_t i = 0;
            if (peek() == ']')
                return expect(']');
            do {
                if (!parseValue(path + "/" + std::to_string(i++)))
                    return false;
            } while (expect(','));
            return expect(']');
        }
        if (c == '"') {
            std::string s;
            return parseString(s);
        }
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E'))
            ++pos;
        if (pos == start)
            return false;
        values[path] = std::stod(text.substr(start, pos - start));
        return true;
    }

    bool
    parse()
    {
        bool ok = parseValue("");
        skipWs();
        return ok && pos == text.size();
    }
};

TEST(MetricsRegistry, CountersGaugesAndOrder)
{
    obs::MetricsRegistry reg;
    reg.setCounter("core.rob.full_stalls", 5);
    reg.addCounter("cache.l1i.mshr_merges", 2);
    reg.addCounter("cache.l1i.mshr_merges");
    reg.setGauge("sim.ipc", 1.25);
    EXPECT_EQ(reg.counterValue("core.rob.full_stalls"), 5u);
    EXPECT_EQ(reg.counterValue("cache.l1i.mshr_merges"), 3u);
    EXPECT_EQ(reg.counterValue("absent"), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("sim.ipc"), 1.25);
    const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].path, "core.rob.full_stalls");
    EXPECT_EQ(snap.counters[1].path, "cache.l1i.mshr_merges");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].path, "sim.ipc");
}

TEST(MetricsRegistry, JsonRoundTrip)
{
    obs::MetricsRegistry reg;
    reg.setCounter("core.instructions", 123456789);
    reg.setCounter("cache.l1i.misses", 42);
    reg.setGauge("sim.ipc", 1.7320508075688772);
    reg.setGauge("phase.simulate.seconds", 0.015625);
    Histogram &h = reg.histogram("core.dep_distance", 4, 8);
    h.sample(0, 10);
    h.sample(7, 5);
    h.sample(1000);

    std::string json = reg.toJson();
    JsonReader reader(json);
    ASSERT_TRUE(reader.parse()) << json;

    EXPECT_DOUBLE_EQ(reader.values["counters/core.instructions"],
                     123456789.0);
    EXPECT_DOUBLE_EQ(reader.values["counters/cache.l1i.misses"], 42.0);
    EXPECT_DOUBLE_EQ(reader.values["gauges/sim.ipc"], 1.7320508075688772);
    EXPECT_DOUBLE_EQ(reader.values["gauges/phase.simulate.seconds"],
                     0.015625);
    EXPECT_DOUBLE_EQ(reader.values["histograms/core.dep_distance/total"],
                     16.0);
    // The percentile summary exported next to the mean.
    EXPECT_DOUBLE_EQ(reader.values["histograms/core.dep_distance/p50"],
                     double(h.percentile(50)));
    EXPECT_DOUBLE_EQ(reader.values["histograms/core.dep_distance/p95"],
                     double(h.percentile(95)));
    EXPECT_DOUBLE_EQ(reader.values["histograms/core.dep_distance/p99"],
                     double(h.percentile(99)));
    EXPECT_DOUBLE_EQ(
        reader.values["histograms/core.dep_distance/buckets/0"], 10.0);
    EXPECT_DOUBLE_EQ(
        reader.values["histograms/core.dep_distance/buckets/1"], 5.0);
    // Overflow bucket.
    EXPECT_DOUBLE_EQ(
        reader.values["histograms/core.dep_distance/buckets/8"], 1.0);
}

TEST(MetricsRegistry, JsonEscapesNames)
{
    obs::MetricsRegistry reg;
    reg.setCounter("weird\"name\\with\nescapes", 1);
    std::string json = reg.toJson();
    JsonReader reader(json);
    ASSERT_TRUE(reader.parse()) << json;
}

TEST(MetricsRegistry, CsvRoundTrip)
{
    obs::MetricsRegistry reg;
    reg.setCounter("a.b", 77);
    reg.setGauge("c.d", 0.5);

    std::istringstream in(reg.toCsv());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "kind,path,value");
    std::map<std::string, std::string> parsed;
    while (std::getline(in, line)) {
        auto first = line.find(',');
        auto second = line.find(',', first + 1);
        ASSERT_NE(second, std::string::npos);
        parsed[line.substr(first + 1, second - first - 1)] =
            line.substr(second + 1);
    }
    EXPECT_EQ(parsed["a.b"], "77");
    EXPECT_DOUBLE_EQ(std::stod(parsed["c.d"]), 0.5);
}

TEST(MetricsRegistry, CsvFlattensHistogramPercentiles)
{
    obs::MetricsRegistry reg;
    Histogram &h = reg.histogram("lat", 2, 8);
    for (std::uint64_t v = 0; v < 16; ++v)
        h.sample(v);
    const std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("histogram,lat.p50,"), std::string::npos);
    EXPECT_NE(csv.find("histogram,lat.p95,"), std::string::npos);
    EXPECT_NE(csv.find("histogram,lat.p99,"), std::string::npos);
}

TEST(Finish, SecondCallIsANoOp)
{
    obs::detail::resetFinishForTests();
    const std::string path =
        testing::TempDir() + "trb_finish_idempotence.json";
    setenv("TRB_OBS_JSON", path.c_str(), 1);
    obs::MetricsRegistry::global().setCounter("finish.test.marker", 1);

    EXPECT_TRUE(obs::finish());
    std::remove(path.c_str());
    // A layered teardown path calling finish() again must not re-export
    // or recreate the dump.
    EXPECT_FALSE(obs::finish());
    std::ifstream probe(path);
    EXPECT_FALSE(probe.good());

    unsetenv("TRB_OBS_JSON");
    obs::detail::resetFinishForTests();
}

TEST(PipelineTracer, RingBufferWrapsAround)
{
    obs::PipelineTracer tracer(8);
    EXPECT_EQ(tracer.capacity(), 8u);
    for (std::uint64_t i = 0; i < 20; ++i) {
        obs::InstrEvent ev;
        ev.seq = i;
        ev.retire = 100 + i;
        tracer.record(ev);
    }
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.size(), 8u);

    auto events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    // Oldest first: the ring holds the most recent 8 records.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 12 + i);
        EXPECT_EQ(events[i].retire, 112 + i);
    }

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(PipelineTracer, BelowCapacityKeepsEverything)
{
    obs::PipelineTracer tracer(16);
    for (std::uint64_t i = 0; i < 5; ++i) {
        obs::InstrEvent ev;
        ev.seq = i;
        tracer.record(ev);
    }
    auto events = tracer.events();
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events.front().seq, 0u);
    EXPECT_EQ(events.back().seq, 4u);
}

TEST(PipelineTracer, ChromeTraceIsValidJson)
{
    obs::PipelineTracer tracer(4);
    for (std::uint64_t i = 0; i < 6; ++i) {
        obs::InstrEvent ev;
        ev.seq = i;
        ev.ip = 0x400000 + 4 * i;
        ev.fetch = 10 * i;
        ev.dispatch = 10 * i + 2;
        ev.issue = 10 * i + 3;
        ev.complete = 10 * i + 4;
        ev.retire = 10 * i + 5;
        if (i == 3)
            ev.squash = obs::SquashCause::TargetMispredict;
        tracer.record(ev);
    }
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    std::string json = os.str();
    JsonReader reader(json);
    EXPECT_TRUE(reader.parse()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("squash:target"), std::string::npos);
}

TEST(PipelineTracer, LaneViewFiltersPcRange)
{
    std::vector<obs::InstrEvent> events;
    for (std::uint64_t i = 0; i < 4; ++i) {
        obs::InstrEvent ev;
        ev.seq = i;
        ev.ip = 0x1000 + 0x10 * i;
        ev.fetch = i;
        ev.dispatch = i + 1;
        ev.issue = i + 2;
        ev.complete = i + 3;
        ev.retire = i + 4;
        events.push_back(ev);
    }
    std::string all = obs::renderLaneView(events);
    EXPECT_NE(all.find("0x00001000"), std::string::npos);
    EXPECT_NE(all.find("0x00001030"), std::string::npos);

    std::string some = obs::renderLaneView(events, 0x1010, 0x1020);
    EXPECT_EQ(some.find("0x00001000"), std::string::npos);
    EXPECT_NE(some.find("0x00001010"), std::string::npos);
    EXPECT_NE(some.find("0x00001020"), std::string::npos);
    EXPECT_EQ(some.find("0x00001030"), std::string::npos);

    std::string none = obs::renderLaneView(events, 0x9000, 0x9010);
    EXPECT_NE(none.find("no traced instructions"), std::string::npos);
}

TEST(Logging, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("silent"), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("trace"), LogLevel::Trace);
    EXPECT_EQ(parseLogLevel("0"), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("3"), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel(nullptr), LogLevel::Info);
    EXPECT_EQ(parseLogLevel(""), LogLevel::Info);
}

/** RAII guard restoring the ambient log level after a test. */
struct LogLevelGuard
{
    LogLevel saved = logLevel();
    ~LogLevelGuard() { setLogLevel(saved); }
};

TEST(Logging, LevelFiltersWarnInformDebug)
{
    LogLevelGuard guard;

    setLogLevel(LogLevel::Silent);
    testing::internal::CaptureStderr();
    trb_warn("w1");
    trb_inform("i1");
    trb_debug("d1");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    trb_warn("w2");
    trb_inform("i2");
    trb_debug("d2");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: w2\n");

    setLogLevel(LogLevel::Debug);
    testing::internal::CaptureStderr();
    trb_warn("w3");
    trb_inform("i3");
    trb_debug("d3");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: w3\ninfo: i3\ndebug: d3\n");
}

TEST(PhaseProfile, AccumulatesAndExports)
{
    obs::PhaseProfile profile;
    profile.add("simulate", 0.5, 0.5, 1000);
    profile.add("simulate", 0.25, 0.25, 500);
    profile.add("convert", 0.25, 0.125);

    const std::vector<obs::PhaseProfile::Entry> rows = profile.entries();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "simulate");
    EXPECT_DOUBLE_EQ(rows[0].seconds, 0.75);
    EXPECT_EQ(rows[0].calls, 2u);
    EXPECT_EQ(rows[0].items, 1500u);
    EXPECT_EQ(profile.items("simulate"), 1500u);
    EXPECT_EQ(profile.items("absent"), 0u);
    EXPECT_DOUBLE_EQ(rows[0].itemsPerSecond(), 2000.0);
    EXPECT_DOUBLE_EQ(rows[1].selfSeconds, 0.125);

    std::string report = profile.report();
    EXPECT_NE(report.find("simulate"), std::string::npos);
    EXPECT_NE(report.find("convert"), std::string::npos);
    // The share column is of self time: 0.75 of 0.875 s.
    EXPECT_NE(report.find("(85.7%)"), std::string::npos) << report;

    obs::MetricsRegistry reg;
    profile.exportTo(reg, "phase");
    EXPECT_DOUBLE_EQ(reg.gaugeValue("phase.simulate.seconds"), 0.75);
    EXPECT_EQ(reg.counterValue("phase.simulate.calls"), 2u);
    EXPECT_EQ(reg.counterValue("phase.simulate.items"), 1500u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("phase.convert.seconds"), 0.25);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("phase.convert.self_seconds"), 0.125);
}

TEST(SpanScope, RecordsElapsedTime)
{
    obs::PhaseProfile &profile = obs::PhaseProfile::global();
    profile.clear();
    {
        obs::SpanScope span("work");
        span.setItems(10);
        // Burn a little wall time so the duration is strictly positive.
        volatile double sink = 0;
        for (int i = 0; i < 100000; ++i)
            sink = sink + 1.0;
    }
    const std::vector<obs::PhaseProfile::Entry> rows = profile.entries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "work");
    EXPECT_GT(rows[0].seconds, 0.0);
    EXPECT_DOUBLE_EQ(rows[0].selfSeconds, rows[0].seconds);
    EXPECT_EQ(rows[0].items, 10u);
    profile.clear();
}

TEST(Histogram, PercentileNearestRank)
{
    Histogram h(10, 10);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(10), 0u);     // 10th sample is in bucket 0
    EXPECT_EQ(h.percentile(50), 40u);    // 50th sample = value 49
    EXPECT_EQ(h.percentile(100), 90u);
    EXPECT_EQ(Histogram(1, 4).percentile(50), 0u);   // empty
}

TEST(Histogram, ReportListsBucketsAndSummary)
{
    Histogram h(5, 4);
    h.sample(1, 8);
    h.sample(12, 2);
    std::string report = h.report("  ");
    EXPECT_NE(report.find("[0, 5) 8"), std::string::npos);
    EXPECT_NE(report.find("[10, 15) 2"), std::string::npos);
    EXPECT_NE(report.find("total 10"), std::string::npos);
    EXPECT_EQ(report.find("[5, 10)"), std::string::npos);
}

} // namespace
} // namespace trb
