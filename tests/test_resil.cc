/**
 * @file
 * Tests for trb::resil: the Status/Expected error model, deterministic
 * fault injection, retry/backoff, quarantine-and-continue sweeps, a
 * store-backed sweep resume that keeps memory configurations apart, and
 * the CLI tools' exit-code contract on the committed corrupt fixtures
 * under tests/data/resil/.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/experiment.hh"
#include "obs/metrics.hh"
#include "resil/cancel.hh"
#include "resil/fault.hh"
#include "resil/gz_stream.hh"
#include "resil/retry.hh"
#include "store/store.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace trb
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

std::string
fixture(const std::string &name)
{
    return std::string(TRB_SOURCE_DIR "/tests/data/resil/") + name;
}

/** Run a shell command, discard its output, return the exit code. */
int
runTool(const std::string &cmd)
{
    int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd << " did not exit cleanly";
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** RAII: whatever a test configures, the injector ends up off. */
struct InjectorGuard
{
    ~InjectorGuard() { resil::FaultInjector::global().disable(); }
};

/** A tiny deterministic trace for serialisation-level tests. */
CvpTrace
smallTrace(std::size_t n)
{
    TraceGenerator gen(serverParams(11));
    return gen.generate(n);
}

TEST(Status, DefaultIsOkAndFactoriesClassify)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.errorClass(), ErrorClass::Ok);
    EXPECT_EQ(ok.toString(), "ok");

    EXPECT_EQ(Status::truncated("t").errorClass(),
              ErrorClass::TruncatedInput);
    EXPECT_EQ(Status::corrupt("c").errorClass(), ErrorClass::CorruptRecord);
    EXPECT_EQ(Status::ioError("i").errorClass(), ErrorClass::IoError);
    EXPECT_EQ(Status::badMagic("m").errorClass(), ErrorClass::BadMagic);
    EXPECT_EQ(Status::internal("b").errorClass(), ErrorClass::Internal);

    EXPECT_TRUE(Status::ioError("i").retryable());
    EXPECT_FALSE(Status::corrupt("c").retryable());
    EXPECT_FALSE(Status::truncated("t").retryable());
}

TEST(Status, DiagnosticsRenderInToString)
{
    Status st = Status::corrupt("invalid class byte")
                    .at("/tmp/x.cvp.gz", 123, 4)
                    .rule("cvp.record");
    EXPECT_EQ(st.errorClass(), ErrorClass::CorruptRecord);
    EXPECT_EQ(st.path(), "/tmp/x.cvp.gz");
    EXPECT_EQ(st.byteOffset(), 123u);
    EXPECT_EQ(st.recordIndex(), 4u);
    EXPECT_EQ(st.ruleViolated(), "cvp.record");
    std::string s = st.toString();
    EXPECT_NE(s.find("corrupt_record"), std::string::npos);
    EXPECT_NE(s.find("invalid class byte"), std::string::npos);
    EXPECT_NE(s.find("byte 123"), std::string::npos);
    EXPECT_NE(s.find("record 4"), std::string::npos);
    EXPECT_NE(s.find("rule cvp.record"), std::string::npos);
}

TEST(Status, ErrorsBumpClassCounters)
{
    auto &reg = obs::MetricsRegistry::global();
    std::uint64_t before = reg.counterValue("resil.errors.bad_magic");
    Status st = Status::badMagic("nope");
    EXPECT_EQ(reg.counterValue("resil.errors.bad_magic"), before + 1);
}

TEST(Expected, HoldsValueOrStatus)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_TRUE(good.status().ok());

    Expected<int> bad(Status::truncated("short"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().errorClass(), ErrorClass::TruncatedInput);
}

TEST(Fixtures, CleanTracesParse)
{
    Expected<CvpTrace> cvp = tryReadCvpTrace(fixture("clean.cvp.gz"));
    ASSERT_TRUE(cvp.ok()) << cvp.status().toString();
    EXPECT_EQ(cvp.value().size(), 400u);

    Expected<ChampSimTrace> cs =
        tryReadChampSimTrace(fixture("clean.champsimtrace.gz"));
    ASSERT_TRUE(cs.ok()) << cs.status().toString();
    EXPECT_EQ(cs.value().size(), 100u);
}

TEST(Fixtures, TruncatedCvpIsTruncatedInput)
{
    Expected<CvpTrace> r = tryReadCvpTrace(fixture("truncated.cvp.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::TruncatedInput);
    EXPECT_NE(r.status().recordIndex(), kNoPosition);
    EXPECT_NE(r.status().byteOffset(), kNoPosition);
}

TEST(Fixtures, BadMagicCvpIsBadMagic)
{
    Expected<CvpTrace> r = tryReadCvpTrace(fixture("badmagic.cvp.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::BadMagic);
    EXPECT_EQ(r.status().ruleViolated(), "cvp.magic");
}

TEST(Fixtures, BadVersionCvpIsCorrupt)
{
    Expected<CvpTrace> r = tryReadCvpTrace(fixture("badversion.cvp.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::CorruptRecord);
    EXPECT_EQ(r.status().ruleViolated(), "cvp.version");
}

TEST(Fixtures, GarbageTailCvpIsCorrupt)
{
    Expected<CvpTrace> r = tryReadCvpTrace(fixture("garbage_tail.cvp.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::CorruptRecord);
    EXPECT_EQ(r.status().ruleViolated(), "cvp.trailing");
}

TEST(Fixtures, TruncatedChampSimCarriesPosition)
{
    Expected<ChampSimTrace> r =
        tryReadChampSimTrace(fixture("truncated.champsimtrace.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::TruncatedInput);
    EXPECT_EQ(r.status().recordIndex(), 41u);
    EXPECT_EQ(r.status().byteOffset(), 41u * 64u);
}

TEST(Fixtures, MissingFileIsIoError)
{
    Expected<CvpTrace> r = tryReadCvpTrace(fixture("does-not-exist.cvp.gz"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::IoError);
    EXPECT_TRUE(r.status().retryable());
}

TEST(TraceWrite, UnwritablePathIsIoError)
{
    Status st = tryWriteCvpTrace("/nonexistent-dir-trb/x.cvp.gz",
                                 smallTrace(10));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.errorClass(), ErrorClass::IoError);

    Status cs = tryWriteChampSimTrace("/nonexistent-dir-trb/x.champsim.gz",
                                      ChampSimTrace(4));
    ASSERT_FALSE(cs.ok());
    EXPECT_EQ(cs.errorClass(), ErrorClass::IoError);
}

TEST(FaultSpec, ParsesAndValidates)
{
    auto spec = resil::FaultSpec::parse(
        "truncate:0.1,bitflip:0.05,garbage:0.5,short-read:1.0,flaky:0.25");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    using resil::FaultKind;
    EXPECT_DOUBLE_EQ(
        spec.value().rate[static_cast<unsigned>(FaultKind::Truncate)], 0.1);
    EXPECT_DOUBLE_EQ(
        spec.value().rate[static_cast<unsigned>(FaultKind::ShortRead)], 1.0);
    EXPECT_TRUE(spec.value().any());

    EXPECT_FALSE(resil::FaultSpec::parse("truncate:1.5").ok());
    EXPECT_FALSE(resil::FaultSpec::parse("frobnicate:0.5").ok());
    EXPECT_FALSE(resil::FaultSpec::parse("truncate").ok());
    auto empty = resil::FaultSpec::parse("");
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty.value().any());
}

TEST(FaultPlan, DeterministicPerNameAndSeed)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    auto spec = resil::FaultSpec::parse("truncate:0.5,bitflip:0.5").value();
    injector.configure(spec, 1234);

    resil::FaultPlan a = injector.plan("trace-a");
    resil::FaultPlan b = injector.plan("trace-a");
    EXPECT_EQ(a.truncate, b.truncate);
    EXPECT_EQ(a.bitflip, b.bitflip);
    EXPECT_EQ(a.seed, b.seed);

    // A rate-0.5 spec over many names afflicts some and spares others.
    unsigned afflicted = 0;
    for (int i = 0; i < 64; ++i)
        if (injector.plan("trace-" + std::to_string(i)).truncate)
            ++afflicted;
    EXPECT_GT(afflicted, 8u);
    EXPECT_LT(afflicted, 56u);

    // A different seed draws a different afflicted set (with 64 names
    // the chance of an identical draw is negligible).
    injector.configure(spec, 99);
    unsigned differs = 0;
    for (int i = 0; i < 64; ++i) {
        injector.configure(spec, 1234);
        bool first = injector.plan("trace-" + std::to_string(i)).truncate;
        injector.configure(spec, 99);
        if (injector.plan("trace-" + std::to_string(i)).truncate != first)
            ++differs;
    }
    EXPECT_GT(differs, 0u);
}

TEST(FaultPlan, CorruptBufferBreaksParsing)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    CvpTrace trace = smallTrace(300);
    std::vector<std::uint8_t> clean = serializeCvpTrace(trace);

    injector.configure(resil::FaultSpec::parse("truncate:1.0").value(), 5);
    std::vector<std::uint8_t> bytes = clean;
    injector.plan("t").corruptBuffer(bytes);
    EXPECT_LT(bytes.size(), clean.size());
    Expected<CvpTrace> r = parseCvpTrace(bytes.data(), bytes.size(), "t");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::TruncatedInput);

    injector.configure(resil::FaultSpec::parse("garbage:1.0").value(), 5);
    bytes = clean;
    injector.plan("t").corruptBuffer(bytes);
    EXPECT_EQ(bytes.size(), clean.size());
    EXPECT_NE(bytes, clean);
    EXPECT_FALSE(parseCvpTrace(bytes.data(), bytes.size(), "t").ok());

    // The same plan applied twice produces byte-identical damage.
    std::vector<std::uint8_t> again = clean;
    injector.plan("t").corruptBuffer(again);
    EXPECT_EQ(bytes, again);
}

TEST(GzStream, ShortReadsAreHarmless)
{
    InjectorGuard guard;
    CvpTrace trace = smallTrace(500);
    std::string path = tempPath("trb_resil_shortread.cvp.gz");
    ASSERT_TRUE(tryWriteCvpTrace(path, trace).ok());

    resil::FaultInjector::global().configure(
        resil::FaultSpec::parse("short-read:1.0").value(), 3);
    Expected<CvpTrace> r = tryReadCvpTrace(path);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value(), trace);
    std::remove(path.c_str());
}

TEST(GzStream, InjectedTruncationTruncates)
{
    InjectorGuard guard;
    CvpTrace trace = smallTrace(2000);
    std::string path = tempPath("trb_resil_trunc.cvp.gz");
    ASSERT_TRUE(tryWriteCvpTrace(path, trace).ok());

    resil::FaultInjector::global().configure(
        resil::FaultSpec::parse("truncate:1.0").value(), 3);
    Expected<CvpTrace> r = tryReadCvpTrace(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::TruncatedInput);
    std::remove(path.c_str());
}

TEST(Retry, TransientFailuresSucceedWithinBudget)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    injector.configure(resil::FaultSpec::parse("flaky:1.0").value(), 21);
    injector.resetAttempts();

    auto &reg = obs::MetricsRegistry::global();
    std::uint64_t retries_before = reg.counterValue("resil.retries");

    resil::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayMs = 1;
    policy.maxDelayMs = 2;
    Expected<int> r = resil::withRetries(policy, "flaky-item", [&] {
        if (injector.shouldFailTransiently("flaky-item"))
            return Expected<int>(
                Status::ioError("injected transient").at("flaky-item"));
        return Expected<int>(42);
    });
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value(), 42);
    EXPECT_GT(reg.counterValue("resil.retries"), retries_before);
}

TEST(Retry, ExhaustedBudgetReturnsLastError)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    injector.configure(resil::FaultSpec::parse("flaky:1.0").value(), 21);
    injector.resetAttempts();

    resil::RetryPolicy policy;
    policy.maxAttempts = 1;   // no retries at all
    Expected<int> r = resil::withRetries(policy, "flaky-item", [&] {
        if (injector.shouldFailTransiently("flaky-item"))
            return Expected<int>(
                Status::ioError("injected transient").at("flaky-item"));
        return Expected<int>(42);
    });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().errorClass(), ErrorClass::IoError);
}

TEST(Retry, NonRetryableFailsImmediately)
{
    resil::RetryPolicy policy;
    policy.maxAttempts = 5;
    int calls = 0;
    Expected<int> r = resil::withRetries(policy, "corrupt-item", [&] {
        ++calls;
        return Expected<int>(Status::corrupt("structurally broken"));
    });
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(calls, 1);

    EXPECT_EQ(resil::backoffMs(policy, 1), 1u);
    EXPECT_EQ(resil::backoffMs(policy, 2), 2u);
    EXPECT_EQ(resil::backoffMs(policy, 3), 4u);
    EXPECT_EQ(resil::backoffMs(policy, 20), policy.maxDelayMs);
}

TEST(Retry, JitteredBackoffIsDeterministicPerStream)
{
    resil::RetryPolicy policy;

    // An empty stream keeps the exact plain schedule.
    for (unsigned n = 1; n <= 20; ++n)
        EXPECT_EQ(resil::backoffMs(policy, "", n),
                  resil::backoffMs(policy, n));

    // Jitter is a pure function of (stream, attempt): same inputs,
    // same delay, every time.
    for (unsigned n = 1; n <= 20; ++n)
        EXPECT_EQ(resil::backoffMs(policy, "worker-1", n),
                  resil::backoffMs(policy, "worker-1", n));

    // Always within [delay/2, delay] of the plain schedule.
    for (unsigned n = 2; n <= 20; ++n) {
        const unsigned plain = resil::backoffMs(policy, n);
        const unsigned jittered =
            resil::backoffMs(policy, "worker-1", n);
        EXPECT_GE(jittered, plain / 2) << "attempt " << n;
        EXPECT_LE(jittered, plain) << "attempt " << n;
    }

    // Distinct streams draw distinct schedules (no retry lockstep):
    // over attempts 3..20 at least one delay must differ.
    bool diverged = false;
    for (unsigned n = 3; n <= 20 && !diverged; ++n)
        diverged = resil::backoffMs(policy, "worker-1", n) !=
                   resil::backoffMs(policy, "worker-2", n);
    EXPECT_TRUE(diverged);
}

TEST(Status, TimeoutClassIsRetryableAndNamed)
{
    Status st = Status::timeout("deadline of 5 ms expired");
    EXPECT_EQ(st.errorClass(), ErrorClass::Timeout);
    EXPECT_TRUE(st.retryable());
    EXPECT_STREQ(errorClassName(ErrorClass::Timeout), "timeout");
    EXPECT_NE(st.toString().find("timeout"), std::string::npos);

    auto &reg = obs::MetricsRegistry::global();
    std::uint64_t before = reg.counterValue("resil.errors.timeout");
    Status again = Status::timeout("again");
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(reg.counterValue("resil.errors.timeout"), before + 1);
}

TEST(Cancel, TokenLatchesOnceAndDeadlineUsesSteadyClock)
{
    resil::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());

    token.cancel("first reason");
    token.cancel("second reason");   // first reason wins
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "first reason");
    try {
        token.throwIfCancelled();
        FAIL() << "throwIfCancelled did not throw";
    } catch (const resil::CancelledError &e) {
        EXPECT_STREQ(e.what(), "first reason");
    }

    resil::Deadline none;
    EXPECT_FALSE(none.valid());
    EXPECT_FALSE(none.expired());

    resil::Deadline soon = resil::Deadline::after(0);
    EXPECT_TRUE(soon.valid());
    EXPECT_TRUE(soon.expired());

    resil::Deadline later = resil::Deadline::after(60'000);
    EXPECT_TRUE(later.valid());
    EXPECT_FALSE(later.expired());
}

TEST(Cancel, TokenEnforcesItsOwnDeadline)
{
    // Nobody calls cancel(): polling is what finds the deadline passed.
    const resil::CancelToken expired(resil::Deadline::after(0));
    EXPECT_TRUE(expired.cancelled());
    EXPECT_EQ(expired.reason(), "deadline expired");
    EXPECT_THROW(expired.throwIfCancelled(), resil::CancelledError);

    const resil::CancelToken far(resil::Deadline::after(3'600'000));
    EXPECT_FALSE(far.cancelled());
    EXPECT_EQ(far.reason(), "");
    EXPECT_NO_THROW(far.throwIfCancelled());
}

TEST(Cancel, ChildFollowsItsParentButNotTheOtherWay)
{
    resil::CancelToken parent;
    resil::CancelToken child(resil::Deadline{}, &parent);
    resil::CancelToken sibling(resil::Deadline::after(3'600'000), &parent);
    EXPECT_FALSE(child.cancelled());

    // Firing a child leaves its parent (and so its siblings) live.
    child.cancel("child only");
    EXPECT_TRUE(child.cancelled());
    EXPECT_FALSE(parent.cancelled());
    EXPECT_FALSE(sibling.cancelled());

    // A fired parent fires every child, which reports the parent's
    // reason unless its own latch fired first.
    parent.cancel("peer gone");
    EXPECT_TRUE(sibling.cancelled());
    EXPECT_EQ(sibling.reason(), "peer gone");
    try {
        sibling.throwIfCancelled();
        FAIL() << "throwIfCancelled did not throw";
    } catch (const resil::CancelledError &e) {
        EXPECT_STREQ(e.what(), "peer gone");
    }
    EXPECT_EQ(child.reason(), "child only");
}

TEST(FaultPlan, ConnFaultKindsResolveDeterministically)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    auto spec = resil::FaultSpec::parse(
        "conn-reset:0.5,conn-stall:0.5,partial-write:0.5");
    ASSERT_TRUE(spec.ok()) << spec.status().toString();
    injector.configure(spec.value(), 42);

    // Conn kinds never damage trace byte streams.
    resil::FaultPlan tracePlan = injector.plan("some-trace.cvp.gz");
    EXPECT_FALSE(tracePlan.corrupting());
    EXPECT_FALSE(tracePlan.shortRead);

    // Deterministic per lane name, with both afflicted and spared
    // lanes at rate 0.5 over 64 names.
    unsigned afflicted = 0;
    for (int i = 0; i < 64; ++i) {
        const std::string lane = "conn-" + std::to_string(i + 1);
        resil::FaultPlan a = injector.plan(lane);
        resil::FaultPlan b = injector.plan(lane);
        EXPECT_EQ(a.connReset, b.connReset);
        EXPECT_EQ(a.connStall, b.connStall);
        EXPECT_EQ(a.partialWrite, b.partialWrite);
        EXPECT_EQ(a.anyConnFault(), b.anyConnFault());
        if (a.anyConnFault())
            ++afflicted;
        // Parameters stay in their documented ranges and are stable.
        if (a.connReset) {
            EXPECT_GE(a.connResetAfterFrames(), 1u);
            EXPECT_LE(a.connResetAfterFrames(), 4u);
            EXPECT_EQ(a.connResetAfterFrames(),
                      b.connResetAfterFrames());
        }
        if (a.connStall)
            for (std::uint64_t f = 0; f < 4; ++f) {
                EXPECT_GE(a.connStallMsFor(f), 1u);
                EXPECT_LE(a.connStallMsFor(f), 16u);
                EXPECT_EQ(a.connStallMsFor(f), b.connStallMsFor(f));
            }
        if (a.partialWrite)
            for (std::uint64_t f = 0; f < 4; ++f) {
                EXPECT_GE(a.partialWriteChunkFor(f), 1u);
                EXPECT_LE(a.partialWriteChunkFor(f), 7u);
                EXPECT_EQ(a.partialWriteChunkFor(f),
                          b.partialWriteChunkFor(f));
            }
    }
    EXPECT_GT(afflicted, 8u);
    EXPECT_LT(afflicted, 64u);
}

TEST(FailureReport, JsonAndSummary)
{
    resil::FailureReport report;
    EXPECT_TRUE(report.empty());
    report.add({"srv_0", 3, 2,
                Status::truncated("cut short").at("srv_0", 999, 12)});
    report.add({"int_1", 5, 1, Status::badMagic("wrong header")});
    EXPECT_EQ(report.size(), 2u);

    std::ostringstream os;
    report.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"quarantined\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"trace\": \"srv_0\""), std::string::npos);
    EXPECT_NE(json.find("\"error_class\": \"truncated_input\""),
              std::string::npos);
    EXPECT_NE(json.find("\"byte_offset\": 999"), std::string::npos);
    EXPECT_NE(json.find("\"error_class\": \"bad_magic\""),
              std::string::npos);

    std::string summary = report.summary();
    EXPECT_NE(summary.find("2 trace(s) quarantined"), std::string::npos);
    EXPECT_NE(summary.find("srv_0"), std::string::npos);

    report.clear();
    EXPECT_TRUE(report.empty());
}

/** A reduced public suite for harness-level tests. */
std::vector<TraceSpec>
reducedSuite(std::uint64_t length, std::size_t stride = 9)
{
    auto full = cvp1PublicSuite(length);
    std::vector<TraceSpec> out;
    for (std::size_t i = 0; i < full.size(); i += stride)
        out.push_back(full[i]);
    return out;
}

TEST(Harness, QuarantineAndContinue)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    auto suite = reducedSuite(1200);
    auto spec = resil::FaultSpec::parse("truncate:0.5").value();

    // Pick a seed whose deterministic draw afflicts some traces but not
    // all, so both policy arms execute.
    std::uint64_t seed = 1;
    std::vector<bool> afflicted;
    for (; seed < 100; ++seed) {
        injector.configure(spec, seed);
        afflicted.clear();
        std::size_t hit = 0;
        for (const TraceSpec &s : suite) {
            afflicted.push_back(injector.plan(s.name).truncate);
            hit += afflicted.back();
        }
        if (hit > 0 && hit < suite.size())
            break;
    }
    ASSERT_LT(seed, 100u);

    resil::FailureReport report;
    std::vector<char> visited(suite.size(), 0);
    forEachTrace(
        suite,
        [&](std::size_t i, const TraceSpec &, const CvpTrace &trace) {
            visited[i] = 1;
            EXPECT_EQ(trace.size(), 1200u);
        },
        &report);

    // Exactly the afflicted traces were quarantined; the rest ran.
    EXPECT_EQ(report.size(),
              static_cast<std::size_t>(
                  std::count(afflicted.begin(), afflicted.end(), true)));
    std::vector<char> quarantined(suite.size(), 0);
    for (const resil::Quarantine &q : report.entries()) {
        ASSERT_LT(q.index, suite.size());
        quarantined[q.index] = 1;
        EXPECT_EQ(q.trace, suite[q.index].name);
        EXPECT_EQ(q.status.errorClass(), ErrorClass::TruncatedInput);
    }
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(static_cast<bool>(afflicted[i]),
                  static_cast<bool>(quarantined[i]))
            << suite[i].name;
        EXPECT_NE(visited[i], quarantined[i]) << suite[i].name;
    }
}

TEST(Harness, SweepSparesCleanTracesBitIdentically)
{
    InjectorGuard guard;
    auto &injector = resil::FaultInjector::global();
    auto suite = reducedSuite(1000, 12);
    std::vector<NamedSet> sets(figureOneSets().begin(),
                               figureOneSets().begin() + 2);
    CoreParams params;

    injector.disable();
    resil::FailureReport clean_report;
    std::vector<SimStats> clean_base;
    auto clean = runImprovementSweep(suite, sets, params, &clean_base,
                                     &clean_report);
    EXPECT_TRUE(clean_report.empty());

    auto spec = resil::FaultSpec::parse("truncate:0.5").value();
    std::uint64_t seed = 1;
    std::vector<bool> afflicted;
    for (; seed < 100; ++seed) {
        injector.configure(spec, seed);
        afflicted.clear();
        std::size_t hit = 0;
        for (const TraceSpec &s : suite) {
            afflicted.push_back(injector.plan(s.name).truncate);
            hit += afflicted.back();
        }
        if (hit > 0 && hit < suite.size())
            break;
    }
    ASSERT_LT(seed, 100u);

    resil::FailureReport report;
    std::vector<SimStats> faulted_base;
    auto faulted =
        runImprovementSweep(suite, sets, params, &faulted_base, &report);
    EXPECT_FALSE(report.empty());

    ASSERT_EQ(faulted.size(), clean.size());
    for (std::size_t k = 0; k < faulted.size(); ++k) {
        ASSERT_EQ(faulted[k].ratio.size(), suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (afflicted[i]) {
                EXPECT_TRUE(std::isnan(faulted[k].ratio[i]))
                    << suite[i].name;
            } else {
                // Bit-identical, not approximately equal.
                EXPECT_EQ(std::memcmp(&faulted[k].ratio[i],
                                      &clean[k].ratio[i], sizeof(double)),
                          0)
                    << suite[i].name;
            }
        }
        // Aggregates skip the NaN slots instead of poisoning.
        EXPECT_TRUE(std::isfinite(faulted[k].geomeanDeltaPercent()));
    }
    for (std::size_t i = 0; i < suite.size(); ++i)
        if (!afflicted[i]) {
            EXPECT_EQ(faulted_base[i].cycles, clean_base[i].cycles);
        }
}

TEST(SimStats, BitsRoundTrip)
{
    SimStats s;
    s.instructions = 123456;
    s.cycles = 654321;
    s.branchMispredicts = 42;
    s.typeCount[3] = 7;
    s.typeTargetMispredicts[6] = 9;
    s.llcMisses = 1;
    s.robFullStalls = ~std::uint64_t{0};

    std::vector<std::uint64_t> bits = s.toBits();
    SimStats back;
    ASSERT_TRUE(SimStats::fromBits(bits, back));
    EXPECT_EQ(back.instructions, s.instructions);
    EXPECT_EQ(back.cycles, s.cycles);
    EXPECT_EQ(back.branchMispredicts, s.branchMispredicts);
    EXPECT_EQ(back.typeCount[3], 7u);
    EXPECT_EQ(back.typeTargetMispredicts[6], 9u);
    EXPECT_EQ(back.robFullStalls, ~std::uint64_t{0});
    EXPECT_EQ(back.toBits(), bits);

    bits.pop_back();
    EXPECT_FALSE(SimStats::fromBits(bits, back));
}

/**
 * A sweep resumes from the store's stats artifacts, so the store key is
 * its resume signature: a rerun whose configuration differs only in the
 * memory system must not be served the first run's cells.
 */
TEST(Checkpoint, SignatureCoversTheMemoryHierarchy)
{
    auto suite = reducedSuite(1000, 15);
    std::vector<NamedSet> sets(figureOneSets().begin(),
                               figureOneSets().begin() + 2);
    CoreParams params;
    CoreParams slow_dram = params;   // differs only in the memory system
    slow_dram.mem.dramLatency *= 4;
    const auto fresh = runImprovementSweep(suite, sets, slow_dram);

    std::string dir = tempPath("trb_resil_sig_store");
    fs::remove_all(dir);
    store::Store::setDirForTesting(dir);
    const auto first = runImprovementSweep(suite, sets, params);
    auto &metrics = obs::MetricsRegistry::global();
    const std::uint64_t hits = metrics.counterValue("store.hits");
    const std::uint64_t misses = metrics.counterValue("store.misses");
    const auto second = runImprovementSweep(suite, sets, slow_dram);
    EXPECT_EQ(metrics.counterValue("store.hits") - hits, 0u)
        << "no cell of the first sweep may be reused";
    EXPECT_GT(metrics.counterValue("store.misses") - misses, 0u)
        << "the rerun must consult the store";
    store::Store::setDirForTesting("");
    fs::remove_all(dir);

    // The configs really disagree, so a shared signature would show.
    bool differs = false;
    ASSERT_EQ(second.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
        ASSERT_EQ(second[k].ratio.size(), fresh[k].ratio.size());
        for (std::size_t i = 0; i < fresh[k].ratio.size(); ++i) {
            differs |= first[k].ratio[i] != fresh[k].ratio[i];
            EXPECT_EQ(std::memcmp(&second[k].ratio[i], &fresh[k].ratio[i],
                                  sizeof(double)),
                      0)
                << "set " << k << " trace " << i;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(ToolExitCodes, TraceLint)
{
    const std::string lint = TRB_BUILD_DIR "/tools/trace_lint";
    // Structural findings are expected on the hand-built clean fixture;
    // --fail-on=none isolates the I/O contract from the rule verdict.
    EXPECT_EQ(runTool(lint + " --fail-on=none " +
                      fixture("clean.champsimtrace.gz")),
              0);
    EXPECT_EQ(runTool(lint + " --fail-on=none " +
                      fixture("truncated.champsimtrace.gz")),
              2);
    EXPECT_EQ(runTool(lint + " --fail-on=none " +
                      fixture("no-such-file.champsimtrace.gz")),
              2);
    EXPECT_EQ(runTool(lint + " --fail-on=none --cvp " +
                      fixture("badmagic.cvp.gz") + " " +
                      fixture("clean.champsimtrace.gz")),
              2);
    EXPECT_EQ(runTool(lint), 2);   // usage

    // Serve-grammar specs are resolved, converted and checked paired.
    EXPECT_EQ(runTool(lint + " --fail-on=error --length 20000 preset:int:7"),
              0);
    EXPECT_EQ(runTool(lint + " suite:cvp1:no_such_trace"), 2);

    // A seeded CFG defect fails only through the whole-program rules.
    const std::string staledef =
        TRB_SOURCE_DIR "/tests/data/lint/cfg_staledef.champsimtrace.gz";
    EXPECT_EQ(runTool(lint + " --fail-on=error " + staledef), 1);
    EXPECT_EQ(runTool(lint + " --fail-on=warn --disable cfg-stale-def,"
                             "cfg-unreachable,cfg-fallthrough,"
                             "cfg-call-balance,cfg-flag-staleness " +
                      staledef),
              0);
}

TEST(ToolExitCodes, Cvp2ChampSim)
{
    const std::string tool = TRB_BUILD_DIR "/examples/cvp2champsim_tool";
    std::string out = tempPath("trb_resil_tool_out.champsimtrace.gz");
    EXPECT_EQ(runTool(tool + " -t " + fixture("clean.cvp.gz") + " -o " +
                      out),
              0);
    EXPECT_EQ(runTool(tool + " -t " + fixture("truncated.cvp.gz") +
                      " -o " + out),
              2);
    EXPECT_EQ(runTool(tool + " -t " + fixture("badmagic.cvp.gz") + " -o " +
                      out),
              2);
    EXPECT_EQ(runTool(tool + " -t " + fixture("garbage_tail.cvp.gz") +
                      " -o " + out),
              2);
    EXPECT_EQ(runTool(tool + " -t " + fixture("no-such.cvp.gz") + " -o " +
                      out),
              2);
    EXPECT_EQ(runTool(tool), 1);   // usage
    std::remove(out.c_str());
}

} // namespace
} // namespace trb
