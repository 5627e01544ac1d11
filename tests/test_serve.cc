/**
 * @file
 * Tests for trb::serve: frame round-trips, typed rejection of malformed
 * requests, FairQueue rotation and bounds, end-to-end fairness between
 * greedy clients, backpressure at the queue bound, graceful-shutdown
 * drain, the worker bound on running sims, deadlines, clean hang-ups
 * that count no error, half-closed and vanished peers, the daemon's
 * thread count, and the headline soak -- hundreds of concurrent mixed
 * cold/warm requests whose replies are bit-identical to direct
 * simulate() calls, at pool widths 1 and 8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "resil/fault.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "store/store.hh"
#include "synth/generator.hh"
#include "synth/params.hh"

namespace fs = std::filesystem;

namespace trb
{
namespace
{

using serve::FairQueue;
using serve::Op;
using serve::ServeClient;
using serve::ServeConfig;
using serve::ServeDaemon;
using serve::ServeReply;
using serve::ServeRequest;

std::uint64_t
counter(const char *path)
{
    return obs::MetricsRegistry::global().counterValue(path);
}

/** A socket path short enough for sun_path, unique per test. */
std::string
testSocketPath()
{
    return "/tmp/trb_serve_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           ".sock";
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

class FramingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_));
    }

    void
    TearDown() override
    {
        if (fds_[0] >= 0)
            ::close(fds_[0]);
        if (fds_[1] >= 0)
            ::close(fds_[1]);
    }

    int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, RoundTripsPayloads)
{
    for (const std::string &payload :
         {std::string(""), std::string("{}"),
          std::string("{\"op\": \"ping\"}"), std::string(4096, 'x')}) {
        ASSERT_TRUE(serve::writeFrame(fds_[0], payload).ok());
        std::string got;
        ASSERT_TRUE(serve::readFrame(fds_[1], got).ok());
        EXPECT_EQ(payload, got);
    }
}

TEST_F(FramingTest, BackToBackFramesStayAligned)
{
    ASSERT_TRUE(serve::writeFrame(fds_[0], "first").ok());
    ASSERT_TRUE(serve::writeFrame(fds_[0], "second").ok());
    std::string a, b;
    ASSERT_TRUE(serve::readFrame(fds_[1], a).ok());
    ASSERT_TRUE(serve::readFrame(fds_[1], b).ok());
    EXPECT_EQ("first", a);
    EXPECT_EQ("second", b);
}

TEST_F(FramingTest, RejectsOversizedWrites)
{
    std::string huge(serve::kMaxFrameBytes + 1, 'x');
    Status st = serve::writeFrame(fds_[0], huge);
    EXPECT_EQ(ErrorClass::Internal, st.errorClass());
}

TEST_F(FramingTest, RejectsGarbagePrefix)
{
    ASSERT_EQ(3, ::write(fds_[0], "xx\n", 3));
    std::string got;
    Status st = serve::readFrame(fds_[1], got);
    EXPECT_EQ(ErrorClass::CorruptRecord, st.errorClass());
    EXPECT_EQ("serve.frame", st.ruleViolated());
}

TEST_F(FramingTest, RejectsOversizedAnnouncedLength)
{
    ASSERT_LT(0, ::write(fds_[0], "99999999\n", 9));
    std::string got;
    Status st = serve::readFrame(fds_[1], got);
    EXPECT_EQ(ErrorClass::CorruptRecord, st.errorClass());
    EXPECT_EQ("serve.frame-size", st.ruleViolated());
}

TEST_F(FramingTest, DistinguishesCleanCloseFromTruncation)
{
    // A close on a frame boundary comes back through `closed` and is no
    // error: no resil.errors.* counter moves.
    ::close(fds_[0]);
    fds_[0] = -1;
    const std::uint64_t truncated =
        counter("resil.errors.truncated_input");
    std::string got;
    bool closed = false;
    EXPECT_TRUE(serve::readFrame(fds_[1], got, &closed).ok());
    EXPECT_TRUE(closed);
    EXPECT_EQ(truncated, counter("resil.errors.truncated_input"));

    // Asked without `closed` (the client's recv), it is a typed close.
    Status st = serve::readFrame(fds_[1], got);
    EXPECT_EQ(ErrorClass::TruncatedInput, st.errorClass());
    EXPECT_EQ("serve.closed", st.ruleViolated());

    // A half-written frame is *not* a clean close.
    ::close(fds_[1]);
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_));
    ASSERT_EQ(5, ::write(fds_[0], "10\nab", 5));
    ::close(fds_[0]);
    fds_[0] = -1;
    closed = false;
    st = serve::readFrame(fds_[1], got, &closed);
    EXPECT_FALSE(closed);
    EXPECT_EQ(ErrorClass::TruncatedInput, st.errorClass());
    EXPECT_EQ("serve.frame", st.ruleViolated());
}

// ---------------------------------------------------------------------
// Request/reply documents
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughJson)
{
    ServeRequest req;
    req.op = Op::Sim;
    req.id = "soak-3-17";
    req.trace = "suite:cvp1:server_017";
    req.length = 20000;
    req.imps = kAllImps;
    req.ipc1 = true;
    req.warmupFraction = 0.5;
    req.useStore = false;

    ServeRequest back;
    ASSERT_TRUE(serve::parseRequest(serve::requestJson(req), back).ok());
    EXPECT_EQ(Op::Sim, back.op);
    EXPECT_EQ(req.id, back.id);
    EXPECT_EQ(req.trace, back.trace);
    EXPECT_EQ(req.length, back.length);
    EXPECT_EQ(req.imps, back.imps);
    EXPECT_EQ(req.ipc1, back.ipc1);
    EXPECT_EQ(req.warmupFraction, back.warmupFraction);
    EXPECT_EQ(req.useStore, back.useStore);
}

TEST(ServeProtocol, DefaultsApplyToMinimalSimRequest)
{
    ServeRequest req;
    ASSERT_TRUE(
        serve::parseRequest(
            "{\"op\": \"sim\", \"trace\": \"preset:int:1\"}", req)
            .ok());
    EXPECT_EQ(std::uint64_t{50000}, req.length);
    EXPECT_EQ(ImprovementSet{kImpNone}, req.imps);
    EXPECT_FALSE(req.ipc1);
    EXPECT_EQ(0.0, req.warmupFraction);
    EXPECT_TRUE(req.useStore);
}

TEST(ServeProtocol, RejectsMalformedRequestsWithTypedErrors)
{
    const struct
    {
        const char *json;
        const char *rule;
    } cases[] = {
        {"not json at all", "serve.json"},
        {"{\"op\": \"fly\"}", "serve.op"},
        {"{}", "serve.op"},
        {"{\"op\": \"sim\"}", "serve.trace"},
        {"{\"op\": \"sim\", \"trace\": \"preset:int:1\", "
         "\"length\": 10}",
         "serve.length"},
        {"{\"op\": \"sim\", \"trace\": \"preset:int:1\", "
         "\"imps\": \"Every_imp\"}",
         "serve.imps"},
        {"{\"op\": \"sim\", \"trace\": \"preset:int:1\", "
         "\"config\": \"ancient\"}",
         "serve.config"},
        {"{\"op\": \"sim\", \"trace\": \"preset:int:1\", "
         "\"warmup_fraction\": 1.5}",
         "serve.warmup"},
    };
    for (const auto &c : cases) {
        ServeRequest req;
        Status st = serve::parseRequest(c.json, req);
        EXPECT_EQ(ErrorClass::BadRequest, st.errorClass()) << c.json;
        EXPECT_EQ(c.rule, st.ruleViolated()) << c.json;
    }
}

TEST(ServeProtocol, DeadlineRoundTripsAndRejectsGarbage)
{
    ServeRequest req;
    req.op = Op::Sim;
    req.trace = "preset:int:5";
    req.deadlineMs = 750;
    std::string doc = serve::requestJson(req);
    EXPECT_NE(doc.find("\"deadline_ms\""), std::string::npos);
    ServeRequest back;
    ASSERT_TRUE(serve::parseRequest(doc, back).ok());
    EXPECT_EQ(std::uint64_t{750}, back.deadlineMs);

    // Zero means unbounded, is the default, and stays off the wire.
    req.deadlineMs = 0;
    EXPECT_EQ(serve::requestJson(req).find("deadline_ms"),
              std::string::npos);
    ServeRequest none;
    ASSERT_TRUE(serve::parseRequest(
                    "{\"op\": \"sim\", \"trace\": \"preset:int:5\"}",
                    none)
                    .ok());
    EXPECT_EQ(std::uint64_t{0}, none.deadlineMs);

    const char *bad[] = {
        "{\"op\": \"sim\", \"trace\": \"preset:int:5\", "
        "\"deadline_ms\": -1}",
        "{\"op\": \"sim\", \"trace\": \"preset:int:5\", "
        "\"deadline_ms\": 1.5}",
        "{\"op\": \"sim\", \"trace\": \"preset:int:5\", "
        "\"deadline_ms\": 2000000000}",
    };
    for (const char *doc2 : bad) {
        ServeRequest r;
        Status st = serve::parseRequest(doc2, r);
        ASSERT_FALSE(st.ok()) << doc2;
        EXPECT_EQ(ErrorClass::BadRequest, st.errorClass()) << doc2;
        EXPECT_EQ("serve.deadline", st.ruleViolated()) << doc2;
    }
}

TEST(ServeProtocol, ValidateSocketPathTypesTheFailure)
{
    EXPECT_TRUE(serve::validateSocketPath("/tmp/ok.sock").ok());

    for (const std::string &path :
         {std::string(), std::string(300, 'p')}) {
        Status st = serve::validateSocketPath(path);
        ASSERT_FALSE(st.ok()) << path.size();
        EXPECT_EQ(ErrorClass::BadRequest, st.errorClass());
        EXPECT_EQ("serve.socket-path", st.ruleViolated());
    }

    // The boundary: sun_path must hold the path plus its NUL.
    const std::size_t cap = sizeof(sockaddr_un{}.sun_path) - 1;
    EXPECT_TRUE(serve::validateSocketPath(std::string(cap, 'p')).ok());
    EXPECT_FALSE(
        serve::validateSocketPath(std::string(cap + 1, 'p')).ok());
}

TEST(ServeProtocol, ResolveTraceRejectsUnknownSpecs)
{
    const char *bad[] = {
        "nocolon",
        "suite:cvp1:not_a_trace",
        "suite:ipc2:client_001",
        "preset:quantum:1",
        "preset:int:notanumber",
    };
    for (const char *spec : bad) {
        ServeRequest req;
        req.trace = spec;
        req.length = 1000;
        Expected<CvpTrace> trace = serve::resolveTrace(req);
        ASSERT_FALSE(trace.ok()) << spec;
        EXPECT_EQ(ErrorClass::BadRequest, trace.status().errorClass())
            << spec;
    }
}

TEST(ServeProtocol, SimReplyCarriesExactStatBits)
{
    CvpTrace cvp = TraceGenerator(computeIntParams(11)).generate(2000);
    SimResult direct = simulate(cvp, SimRequest{.useStore = false});

    ServeReply reply;
    ASSERT_TRUE(
        serve::parseReply(serve::simReplyJson("tag", direct, 42), reply)
            .ok());
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ("sim", reply.op);
    EXPECT_EQ("tag", reply.id);
    EXPECT_EQ(std::uint64_t{42}, reply.seq);
    EXPECT_EQ(direct.stats.toBits(), reply.stats.toBits());
}

TEST(ServeProtocol, ErrorReplyRoundTripsTheTaxonomy)
{
    // Every class but Ok, from the status module's one table: a class
    // the decoder missed would come back as internal, which can flip
    // retryable().
    const ErrorClass classes[] = {
#define TRB_EVERY_CLASS(cls, name) ErrorClass::cls,
        TRB_ERROR_CLASSES(TRB_EVERY_CLASS)
#undef TRB_EVERY_CLASS
    };
    for (ErrorClass cls : classes) {
        if (cls == ErrorClass::Ok)
            continue;
        SCOPED_TRACE(errorClassName(cls));
        const Status sent =
            Status::of(cls, std::string("went ") + errorClassName(cls))
                .rule("serve.queue-bound");
        ServeReply reply;
        ASSERT_TRUE(serve::parseReply(
                        serve::errorReplyJson("sim", "id9", sent), reply)
                        .ok());
        EXPECT_FALSE(reply.ok);
        EXPECT_EQ("sim", reply.op);
        EXPECT_EQ("id9", reply.id);
        EXPECT_EQ(cls, reply.error.errorClass());
        EXPECT_EQ(sent.message(), reply.error.message());
        EXPECT_EQ("serve.queue-bound", reply.error.ruleViolated());
        EXPECT_EQ(sent.retryable(), reply.error.retryable());
    }

    // A class this build does not know decodes as internal.
    ServeReply reply;
    ASSERT_TRUE(serve::parseReply(
                    R"({"ok": false, "op": "sim", "id": "x", "error": )"
                    R"({"class": "quota", "message": "m"}})",
                    reply)
                    .ok());
    EXPECT_EQ(ErrorClass::Internal, reply.error.errorClass());
    EXPECT_EQ("m", reply.error.message());

    // An error reply without an error class is no reply at all: it must
    // not pass for an empty internal error.
    Status st = serve::parseReply(R"({"ok": false, "op": "sim", "id": "x"})",
                                  reply);
    EXPECT_EQ(ErrorClass::CorruptRecord, st.errorClass());
    EXPECT_EQ("serve.reply", st.ruleViolated());
}

// ---------------------------------------------------------------------
// FairQueue
// ---------------------------------------------------------------------

TEST(FairQueueTest, RotatesBetweenClients)
{
    FairQueue<int> q(16);
    // Greedy client a queues 3 before b queues 2.
    ASSERT_TRUE(q.push("a", 1));
    ASSERT_TRUE(q.push("a", 2));
    ASSERT_TRUE(q.push("a", 3));
    ASSERT_TRUE(q.push("b", 10));
    ASSERT_TRUE(q.push("b", 20));

    std::vector<int> order;
    int item = 0;
    while (q.pop(item))
        order.push_back(item);
    EXPECT_EQ((std::vector<int>{1, 10, 2, 20, 3}), order);
    EXPECT_EQ(0u, q.depth());
    EXPECT_EQ(0u, q.lanes());
}

TEST(FairQueueTest, BoundRejectsAndDrainRestores)
{
    FairQueue<int> q(2);
    EXPECT_TRUE(q.push("a", 1));
    EXPECT_TRUE(q.push("b", 2));
    EXPECT_FALSE(q.push("a", 3));
    EXPECT_FALSE(q.push("c", 4));
    EXPECT_EQ(2u, q.depth());

    int item = 0;
    EXPECT_TRUE(q.pop(item));
    EXPECT_TRUE(q.push("c", 4));
    EXPECT_TRUE(q.pop(item));
    EXPECT_TRUE(q.pop(item));
    EXPECT_FALSE(q.pop(item));
}

TEST(FairQueueTest, LateClientWaitsAtMostOneRotation)
{
    FairQueue<int> q(16);
    ASSERT_TRUE(q.push("a", 1));
    ASSERT_TRUE(q.push("a", 2));
    int item = 0;
    ASSERT_TRUE(q.pop(item));
    EXPECT_EQ(1, item);
    ASSERT_TRUE(q.push("b", 10));
    ASSERT_TRUE(q.pop(item));
    EXPECT_EQ(2, item);
    ASSERT_TRUE(q.pop(item));
    EXPECT_EQ(10, item);
}

// ---------------------------------------------------------------------
// End-to-end daemon
// ---------------------------------------------------------------------

/** Daemon + socket + per-test store directory scaffolding. */
class ServeDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        storeDir_ = std::string(TRB_BUILD_DIR) + "/store_test/serve_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name();
        fs::remove_all(storeDir_);
        socketPath_ = testSocketPath();
    }

    void
    TearDown() override
    {
        store::Store::setDirForTesting("");
        fs::remove_all(storeDir_);
        ::unlink(socketPath_.c_str());
    }

    ServeConfig
    config()
    {
        ServeConfig cfg;
        cfg.socketPath = socketPath_;
        return cfg;
    }

    std::string storeDir_;
    std::string socketPath_;
};

TEST_F(ServeDaemonTest, PingAndStatsAnswerInline)
{
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    ServeReply reply;
    ASSERT_TRUE(client.ping(reply).ok());
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ("trb-serve-v1", reply.raw.str("schema"));

    ASSERT_TRUE(client.stats(reply).ok());
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(2.0, reply.raw.number("jobs"));
    EXPECT_EQ(64.0, reply.raw.number("queue_bound"));
    daemon.stop();
    EXPECT_FALSE(fs::exists(socketPath_));
}

/** Connect a raw fd to @p path (bypasses ServeClient's encoder). */
int
rawConnect(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST_F(ServeDaemonTest, MalformedRequestGetsTypedReplyAndKeepsConn)
{
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t before = counter("serve.rejected.malformed");

    int fd = rawConnect(socketPath_);
    ASSERT_GE(fd, 0);

    // Garbage documents in valid frames: each gets a typed bad_request
    // reply and the connection stays open for the next one.
    const char *garbage[] = {
        "this is not json",
        "{\"op\": \"warp\"}",
        "{\"op\": \"sim\"}",
    };
    for (const char *doc : garbage) {
        ASSERT_TRUE(serve::writeFrame(fd, doc).ok());
        std::string payload;
        ASSERT_TRUE(serve::readFrame(fd, payload).ok());
        ServeReply reply;
        ASSERT_TRUE(serve::parseReply(payload, reply).ok()) << payload;
        EXPECT_FALSE(reply.ok);
        EXPECT_EQ(ErrorClass::BadRequest, reply.error.errorClass())
            << doc;
    }
    EXPECT_EQ(before + 3, counter("serve.rejected.malformed"));

    // The same connection still serves well-formed requests.
    ASSERT_TRUE(serve::writeFrame(fd, "{\"op\": \"ping\"}").ok());
    std::string payload;
    ASSERT_TRUE(serve::readFrame(fd, payload).ok());
    ServeReply reply;
    ASSERT_TRUE(serve::parseReply(payload, reply).ok());
    EXPECT_TRUE(reply.ok);

    // A framing violation, by contrast, hangs the connection up.
    ASSERT_EQ(3, ::write(fd, "zz\n", 3));
    Status st;
    for (;;) {
        st = serve::readFrame(fd, payload);
        if (!st.ok())
            break;   // the daemon's parting error reply, then close
    }
    ::close(fd);
    daemon.stop();
}

TEST_F(ServeDaemonTest, DeeplyNestedFrameGetsTypedReplyAndKeepsConn)
{
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    int fd = rawConnect(socketPath_);
    ASSERT_GE(fd, 0);

    // ~1 MiB of '[' fits a frame; unbounded, the reader's recursion
    // would exhaust the reader thread's stack or the heap.  A 4 MiB
    // frame of 2 M zeros is as wide as a frame gets; unbounded, its
    // flattening took ~40 times the frame's size.
    std::string wide = "[0";
    while (wide.size() + 3 <= serve::kMaxFrameBytes)
        wide += ",0";
    wide += "]";
    for (const std::string &frame : {std::string(1u << 20, '['), wide}) {
        SCOPED_TRACE(frame.size());
        ASSERT_TRUE(serve::writeFrame(fd, frame).ok());
        std::string payload;
        ASSERT_TRUE(serve::readFrame(fd, payload).ok());
        ServeReply reply;
        ASSERT_TRUE(serve::parseReply(payload, reply).ok()) << payload;
        EXPECT_FALSE(reply.ok);
        EXPECT_EQ(ErrorClass::BadRequest, reply.error.errorClass());
        EXPECT_EQ("serve.json", reply.error.ruleViolated());

        ASSERT_TRUE(serve::writeFrame(fd, "{\"op\": \"ping\"}").ok());
        ASSERT_TRUE(serve::readFrame(fd, payload).ok());
        ASSERT_TRUE(serve::parseReply(payload, reply).ok()) << payload;
        EXPECT_TRUE(reply.ok);
        EXPECT_EQ("ping", reply.op);
    }
    ::close(fd);
    daemon.stop();
}

TEST_F(ServeDaemonTest, SimMatchesDirectSimulateColdAndWarm)
{
    store::Store::setDirForTesting(storeDir_);
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    ServeRequest req;
    req.op = Op::Sim;
    req.trace = "preset:int:5";
    req.length = 2000;
    req.imps = kAllImps;
    req.id = "cold";

    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    ServeReply cold;
    ASSERT_TRUE(client.call(req, cold).ok());
    ASSERT_TRUE(cold.ok) << cold.error.toString();
    EXPECT_FALSE(cold.statsFromStore);

    req.id = "warm";
    ServeReply warm;
    ASSERT_TRUE(client.call(req, warm).ok());
    ASSERT_TRUE(warm.ok) << warm.error.toString();
    EXPECT_TRUE(warm.statsFromStore);

    CvpTrace cvp = TraceGenerator(computeIntParams(5)).generate(2000);
    SimResult direct = simulate(
        cvp, SimRequest{.imps = kAllImps, .useStore = false});
    EXPECT_EQ(direct.stats.toBits(), cold.stats.toBits());
    EXPECT_EQ(direct.stats.toBits(), warm.stats.toBits());
    daemon.stop();
}

TEST_F(ServeDaemonTest, RewrittenFileTraceGetsTheNewResult)
{
    // A file: spec names a path, not content: a trace rewritten between
    // two requests must be read again, never answered by its old name.
    store::Store::setDirForTesting(storeDir_);
    fs::create_directories(storeDir_);
    const std::string path = storeDir_ + "/trace.cvp.gz";
    const CvpTrace before = TraceGenerator(computeIntParams(5)).generate(2000);
    const CvpTrace after = TraceGenerator(serverParams(5)).generate(2000);
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());
    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    ServeRequest req;
    req.op = Op::Sim;
    req.trace = "file:" + path;
    req.length = 2000;
    req.imps = kAllImps;

    ServeReply first, second;
    ASSERT_TRUE(tryWriteCvpTrace(path, before).ok());
    ASSERT_TRUE(client.call(req, first).ok());
    ASSERT_TRUE(tryWriteCvpTrace(path, after).ok());
    ASSERT_TRUE(client.call(req, second).ok());
    ASSERT_TRUE(second.ok) << second.error.toString();
    EXPECT_EQ(simulate(after, SimRequest{.imps = kAllImps, .useStore = false})
                  .stats.toBits(),
              second.stats.toBits());
    daemon.stop();
}

TEST_F(ServeDaemonTest, MetricTableStaysBoundedAcrossConnections)
{
    // A long-running daemon sees an unbounded number of connections;
    // none of them may leave a registry row behind.
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    auto &reg = obs::MetricsRegistry::global();
    std::size_t after_first = 0;
    for (int conn = 0; conn < 4; ++conn) {
        const std::uint64_t hangups = counter("serve.disconnects");
        {
            ServeClient client;
            ASSERT_TRUE(client.connect(socketPath_).ok());
            ServeRequest req;
            req.op = Op::Sim;
            req.trace = "preset:int:5";
            req.length = 2000;
            req.useStore = false;
            req.id = "conn-" + std::to_string(conn);
            ServeReply reply;
            ASSERT_TRUE(client.call(req, reply).ok());
            ASSERT_TRUE(reply.ok) << reply.error.toString();
        }
        // The reader counts the hang-up as it exits; wait for it, so
        // each snapshot covers a connection's whole life.
        for (int spin = 0;
             spin < 2000 && counter("serve.disconnects") == hangups;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

        const std::size_t rows = reg.snapshot().counters.size();
        if (conn == 0)
            after_first = rows;
        EXPECT_EQ(rows, after_first) << "connection " << conn;
    }
    daemon.stop();
}

TEST_F(ServeDaemonTest, CleanHangUpsCountNoErrors)
{
    // Connect, call, close is how every client ends: however many do,
    // no resil.errors.* counter may move.
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    auto errors = [] {
        std::map<std::string, std::uint64_t> out;
        for (const auto &entry :
             obs::MetricsRegistry::global().snapshot().counters)
            if (entry.path.rfind("resil.errors.", 0) == 0)
                out[entry.path] = entry.value;
        return out;
    };
    const std::map<std::string, std::uint64_t> before = errors();
    const std::uint64_t hangups = counter("serve.disconnects");

    const int kCycles = 5;
    for (int i = 0; i < kCycles; ++i) {
        ServeClient client;
        ASSERT_TRUE(client.connect(socketPath_).ok());
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:int:5";
        req.length = 2000;
        req.useStore = false;
        req.id = std::to_string(i);
        ServeReply reply;
        ASSERT_TRUE(client.call(req, reply).ok());
        ASSERT_TRUE(reply.ok) << reply.error.toString();
    }
    for (int spin = 0;
         spin < 2000 && counter("serve.disconnects") < hangups + kCycles;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(hangups + kCycles, counter("serve.disconnects"));
    EXPECT_EQ(before, errors());
    daemon.stop();
}

TEST_F(ServeDaemonTest, BackpressureRepliesBusyAtQueueBound)
{
    ServeConfig cfg = config();
    cfg.queueBound = 1;
    par::ThreadPool pool(2);   // one worker
    ServeDaemon daemon(cfg, &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t busyBefore = counter("serve.rejected.busy");

    // Pipeline more sims than bound + worker can hold; the excess
    // must come back as typed busy replies, nothing lost.
    const int kSent = 8;
    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    for (int i = 0; i < kSent; ++i) {
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:int:9";
        req.length = 20000;   // slow enough to keep the queue full
        req.useStore = false;
        req.id = "req-" + std::to_string(i);
        ASSERT_TRUE(client.send(req).ok());
    }

    int okCount = 0, busyCount = 0;
    std::set<std::string> ids;
    for (int i = 0; i < kSent; ++i) {
        ServeReply reply;
        ASSERT_TRUE(client.recv(reply).ok());
        EXPECT_TRUE(ids.insert(reply.id).second)
            << "duplicate reply for " << reply.id;
        if (reply.ok) {
            ++okCount;
        } else {
            ASSERT_EQ(ErrorClass::Busy, reply.error.errorClass())
                << reply.error.toString();
            EXPECT_EQ("serve.queue-bound", reply.error.ruleViolated());
            ++busyCount;
        }
    }
    EXPECT_EQ(kSent, okCount + busyCount);
    EXPECT_EQ(static_cast<std::size_t>(kSent), ids.size());
    EXPECT_GE(busyCount, 1);
    EXPECT_GE(okCount, 1);
    EXPECT_GE(counter("serve.rejected.busy"), busyBefore + 1);
    daemon.stop();
}

TEST_F(ServeDaemonTest, FairnessTwoGreedyClientsBothProgress)
{
    par::ThreadPool pool(2);   // one worker, so rotation is visible
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const int kEach = 6;
    auto drive = [&](std::vector<std::uint64_t> &seqs) {
        ServeClient client;
        ASSERT_TRUE(client.connect(socketPath_).ok());
        for (int i = 0; i < kEach; ++i) {
            ServeRequest req;
            req.op = Op::Sim;
            req.trace = "preset:int:3";
            req.length = 20000;
            req.useStore = false;
            req.id = std::to_string(i);
            ASSERT_TRUE(client.send(req).ok());
        }
        for (int i = 0; i < kEach; ++i) {
            ServeReply reply;
            ASSERT_TRUE(client.recv(reply).ok());
            ASSERT_TRUE(reply.ok) << reply.error.toString();
            seqs.push_back(reply.seq);
        }
    };

    std::vector<std::uint64_t> seqA, seqB;
    std::thread ta([&] { drive(seqA); });
    std::thread tb([&] { drive(seqB); });
    ta.join();
    tb.join();

    ASSERT_EQ(static_cast<std::size_t>(kEach), seqA.size());
    ASSERT_EQ(static_cast<std::size_t>(kEach), seqB.size());

    // Round-robin pops mean neither client's backlog finishes before
    // the other's begins: the start sequences interleave.
    const std::uint64_t aMax =
        *std::max_element(seqA.begin(), seqA.end());
    const std::uint64_t bMax =
        *std::max_element(seqB.begin(), seqB.end());
    const std::uint64_t aMin =
        *std::min_element(seqA.begin(), seqA.end());
    const std::uint64_t bMin =
        *std::min_element(seqB.begin(), seqB.end());
    EXPECT_LT(aMin, bMax);
    EXPECT_LT(bMin, aMax);
    daemon.stop();
}

TEST_F(ServeDaemonTest, StopDrainsQueuedRequestsWithTypedBusy)
{
    ServeConfig cfg = config();
    cfg.queueBound = 64;
    par::ThreadPool pool(2);   // one worker
    ServeDaemon daemon(cfg, &pool);
    ASSERT_TRUE(daemon.start().ok());

    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    for (int i = 0; i < 4; ++i) {
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:int:2";
        req.length = 20000;
        req.useStore = false;
        req.id = std::to_string(i);
        ASSERT_TRUE(client.send(req).ok());
    }

    // A trailing ping pins down the race with stop(): the reader
    // answers it inline only after it has queued all four sims, so
    // once the pong arrives the backlog is really in the daemon.
    ServeRequest ping;
    ping.op = Op::Ping;
    ASSERT_TRUE(client.send(ping).ok());

    int answered = 0;
    for (bool pong = false; !pong;) {
        ServeReply reply;
        ASSERT_TRUE(client.recv(reply).ok());
        if (reply.op == "ping")
            pong = true;
        else
            ++answered;
    }
    daemon.stop();

    // Every queued request is answered before the daemon hangs up:
    // by a result or by a typed shutdown busy.
    for (; answered < 4; ++answered) {
        ServeReply reply;
        ASSERT_TRUE(client.recv(reply).ok());
        EXPECT_EQ("sim", reply.op);
        if (!reply.ok)
            EXPECT_EQ(ErrorClass::Busy, reply.error.errorClass());
    }
    EXPECT_EQ(4, answered);
}

TEST_F(ServeDaemonTest, InflightNeverExceedsTheWorkers)
{
    // A pool of three jobs sizes the daemon at two workers: of eight
    // queued sims, two run and the rest wait in the queue.
    par::ThreadPool pool(3);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const int kSent = 8;
    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    for (int i = 0; i < kSent; ++i) {
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:int:" + std::to_string(i + 1);
        req.length = 100000;
        req.useStore = false;
        req.id = std::to_string(i);
        ASSERT_TRUE(client.send(req).ok());
    }
    // As in StopDrainsQueuedRequestsWithTypedBusy: once the pong
    // arrives, all eight sims are in the daemon.
    ServeRequest ping;
    ping.op = Op::Ping;
    ASSERT_TRUE(client.send(ping).ok());
    int answered = 0;
    for (bool pong = false; !pong;) {
        ServeReply reply;
        ASSERT_TRUE(client.recv(reply).ok());
        if (reply.op == "ping")
            pong = true;
        else
            ++answered;
    }

    // Watch the gauges from a second connection until the queue drains.
    ServeClient watcher;
    ASSERT_TRUE(watcher.connect(socketPath_).ok());
    double most = 0.0;
    for (int spin = 0; spin < 100000; ++spin) {
        ServeReply stats;
        ASSERT_TRUE(watcher.stats(stats).ok());
        most = std::max(most, stats.raw.number("gauges/serve.inflight"));
        if (stats.raw.number("gauges/serve.queue_depth") == 0.0)
            break;
    }
    EXPECT_EQ(2.0, most);

    for (; answered < kSent; ++answered) {
        ServeReply reply;
        ASSERT_TRUE(client.recv(reply).ok());
        EXPECT_TRUE(reply.ok) << reply.error.toString();
    }
    daemon.stop();
}

// ---------------------------------------------------------------------
// Hostile time: deadlines, cancellation, dead clients
// ---------------------------------------------------------------------

TEST_F(ServeDaemonTest, StartRejectsOversizedSocketPathTyped)
{
    ServeConfig cfg = config();
    cfg.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    par::ThreadPool pool(1);
    ServeDaemon daemon(cfg, &pool);
    Status st = daemon.start();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(ErrorClass::BadRequest, st.errorClass());
    EXPECT_EQ("serve.socket-path", st.ruleViolated());
    daemon.stop();   // must be a harmless no-op after a failed start
}

TEST_F(ServeDaemonTest, QueuedPastDeadlineGetsTypedTimeout)
{
    par::ThreadPool pool(2);   // one worker
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t timedBefore = counter("serve.timeout.queued") +
                                      counter("serve.timeout.cancelled");

    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());

    // The first request holds the only worker for tens of
    // milliseconds...
    ServeRequest slow;
    slow.op = Op::Sim;
    slow.trace = "preset:int:9";
    slow.length = 20000;
    slow.useStore = false;
    slow.id = "slow";
    ASSERT_TRUE(client.send(slow).ok());

    // ...so the 1 ms deadline on the second expires while it queues,
    // and the daemon must answer it typed without simulating anything.
    ServeRequest doomed = slow;
    doomed.id = "doomed";
    doomed.deadlineMs = 1;
    ASSERT_TRUE(client.send(doomed).ok());

    std::map<std::string, ServeReply> replies;
    for (int i = 0; i < 2; ++i) {
        ServeReply r;
        ASSERT_TRUE(client.recv(r).ok());
        replies[r.id] = r;
    }
    ASSERT_EQ(2u, replies.size());
    EXPECT_TRUE(replies["slow"].ok)
        << replies["slow"].error.toString();
    const ServeReply &timedOut = replies["doomed"];
    ASSERT_FALSE(timedOut.ok);
    EXPECT_EQ(ErrorClass::Timeout, timedOut.error.errorClass());
    EXPECT_TRUE(timedOut.error.retryable());
    EXPECT_GE(counter("serve.timeout.queued") +
                  counter("serve.timeout.cancelled"),
              timedBefore + 1);
    daemon.stop();
}

TEST_F(ServeDaemonTest, InflightPastDeadlineIsCancelledMidSim)
{
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t timedBefore = counter("serve.timeout.queued") +
                                      counter("serve.timeout.cancelled");

    // Hundreds of milliseconds of work against a 1 ms budget: the sim's
    // token carries the deadline, so the worker's check or the core's
    // next poll aborts the run -- the reply must arrive in poll time,
    // not simulation time.
    ServeClient client;
    ASSERT_TRUE(client.connect(socketPath_).ok());
    ServeRequest req;
    req.op = Op::Sim;
    req.trace = "preset:server:4";
    req.length = 500000;
    req.useStore = false;
    req.deadlineMs = 1;
    req.id = "doomed";
    ServeReply reply;
    ASSERT_TRUE(client.call(req, reply).ok());
    ASSERT_FALSE(reply.ok);
    EXPECT_EQ(ErrorClass::Timeout, reply.error.errorClass());
    EXPECT_TRUE(reply.error.retryable());
    EXPECT_GE(counter("serve.timeout.queued") +
                  counter("serve.timeout.cancelled"),
              timedBefore + 1);
    daemon.stop();
}

TEST_F(ServeDaemonTest, DeadClientIsReapedAndInflightCancelled)
{
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t reapedBefore = counter("serve.reaped.dead");

    {
        ServeClient victim;
        ASSERT_TRUE(victim.connect(socketPath_).ok());
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:membound:6";
        req.length = 500000;
        req.useStore = false;
        req.id = "abandoned";
        ASSERT_TRUE(victim.send(req).ok());
        // Give the daemon a moment to dispatch the request...
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }   // ...then vanish without ever reading the reply.

    // The reader's EOF check finds the peer gone and fires its
    // connection's token: the in-flight work is cancelled instead of
    // simulating half a million records for nobody.
    auto &reg = obs::MetricsRegistry::global();
    bool drained = false;
    for (int spin = 0; spin < 2000 && !drained; ++spin) {
        drained = counter("serve.reaped.dead") > reapedBefore &&
                  reg.gaugeValue("serve.inflight") == 0.0;
        if (!drained)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(drained);

    // The daemon is unharmed: a new client still gets served.
    ServeClient after;
    ASSERT_TRUE(after.connect(socketPath_).ok());
    ServeRequest req;
    req.op = Op::Sim;
    req.trace = "preset:int:5";
    req.length = 2000;
    req.useStore = false;
    req.id = "alive";
    ServeReply reply;
    ASSERT_TRUE(after.call(req, reply).ok());
    EXPECT_TRUE(reply.ok) << reply.error.toString();
    daemon.stop();
}

TEST_F(ServeDaemonTest, HalfClosedPeerGetsItsPipelinedReplies)
{
    // shutdown(SHUT_WR) after the last request is EOF to the reader but
    // no hang-up: the peer still reads, so every reply must reach it.
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t reapedBefore = counter("serve.reaped.dead");
    const std::uint64_t hangups = counter("serve.disconnects");

    int fd = rawConnect(socketPath_);
    ASSERT_GE(fd, 0);
    // A reply that never comes fails the test instead of hanging it.
    const timeval patience{10, 0};
    ASSERT_EQ(0, ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                              sizeof(patience)));
    for (int i = 0; i < 2; ++i) {
        ServeRequest req;
        req.op = Op::Sim;
        req.trace = "preset:int:4";
        req.length = 50000;
        req.useStore = false;
        req.id = std::to_string(i);
        ASSERT_TRUE(serve::writeFrame(fd, serve::requestJson(req)).ok());
    }
    ASSERT_EQ(0, ::shutdown(fd, SHUT_WR));

    std::set<std::string> ids;
    for (int i = 0; i < 2; ++i) {
        std::string payload;
        ASSERT_TRUE(serve::readFrame(fd, payload).ok());
        ServeReply reply;
        ASSERT_TRUE(serve::parseReply(payload, reply).ok()) << payload;
        EXPECT_TRUE(reply.ok) << reply.error.toString();
        ids.insert(reply.id);
    }
    EXPECT_EQ(2u, ids.size());
    for (int spin = 0;
         spin < 2000 && counter("serve.disconnects") == hangups; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(hangups + 1, counter("serve.disconnects"));
    EXPECT_EQ(reapedBefore, counter("serve.reaped.dead"));
    ::close(fd);
    daemon.stop();
}

TEST_F(ServeDaemonTest, ClosedPeerCancelsItsRunningAndQueuedSims)
{
    // One worker: of three slow sims, one runs and two wait.  The peer
    // then closes outright, and nothing of its is simulated for nobody:
    // the running sim is cancelled and the queued ones are dropped.
    par::ThreadPool pool(2);
    ServeDaemon daemon(config(), &pool);
    ASSERT_TRUE(daemon.start().ok());

    const std::uint64_t reapedBefore = counter("serve.reaped.dead");
    const std::uint64_t cancelledBefore =
        counter("serve.timeout.cancelled");
    const std::uint64_t droppedBefore = counter("serve.dropped.dead");
    const std::uint64_t servedBefore = counter("serve.served");

    auto &reg = obs::MetricsRegistry::global();
    {
        ServeClient victim;
        ASSERT_TRUE(victim.connect(socketPath_).ok());
        for (int i = 0; i < 3; ++i) {
            ServeRequest req;
            req.op = Op::Sim;
            req.trace = "preset:membound:" + std::to_string(i + 1);
            req.length = 500000;
            req.useStore = false;
            req.id = std::to_string(i);
            ASSERT_TRUE(victim.send(req).ok());
        }
        // Once the pong arrives all three are admitted; once the gauge
        // reads 1 the first is on the worker.
        ServeRequest ping;
        ping.op = Op::Ping;
        ServeReply pong;
        ASSERT_TRUE(victim.call(ping, pong).ok());
        ASSERT_EQ("ping", pong.op);
        for (int spin = 0;
             spin < 2000 && reg.gaugeValue("serve.inflight") == 0.0;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(1.0, reg.gaugeValue("serve.inflight"));
    }

    bool drained = false;
    for (int spin = 0; spin < 5000 && !drained; ++spin) {
        drained = counter("serve.timeout.cancelled") > cancelledBefore &&
                  counter("serve.dropped.dead") >= droppedBefore + 2;
        if (!drained)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(drained);
    EXPECT_EQ(cancelledBefore + 1, counter("serve.timeout.cancelled"));
    EXPECT_EQ(droppedBefore + 2, counter("serve.dropped.dead"));
    EXPECT_EQ(reapedBefore + 1, counter("serve.reaped.dead"));
    EXPECT_EQ(servedBefore, counter("serve.served"));
    daemon.stop();
}

/** Threads of this process, as /proc/self/task lists them. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         fs::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST_F(ServeDaemonTest, IdleDaemonRunsOnlyAcceptAndWorkerThreads)
{
    // start() adds the accept thread and max(1, jobs - 1) workers, and
    // nothing else: no timer thread wakes an idle daemon.
    for (std::size_t jobs : {1, 3}) {
        SCOPED_TRACE(jobs);
        par::ThreadPool pool(jobs);
        const std::size_t before = threadCount();
        ServeDaemon daemon(config(), &pool);
        ASSERT_TRUE(daemon.start().ok());
        EXPECT_EQ(before + 1 + std::max<std::size_t>(1, jobs - 1),
                  threadCount());
        daemon.stop();
    }
}

// ---------------------------------------------------------------------
// Soak
// ---------------------------------------------------------------------

/** One spec of the soak mix, with its precomputed direct-sim bits. */
struct SoakSpec
{
    std::string trace;
    std::uint64_t length = 2000;
    ImprovementSet imps = kImpNone;
    std::vector<std::uint64_t> bits;
};

/**
 * Build the soak mix: distinct (preset, imps) combos, half primed into
 * the store (warm), half cold.  Expected bits come from direct
 * simulate() calls -- the daemon must match them exactly.
 */
std::vector<SoakSpec>
makeSoakSpecs()
{
    std::vector<SoakSpec> specs;
    const char *presets[] = {"int", "fp", "crypto", "server",
                             "membound"};
    const ImprovementSet impSets[] = {kImpNone, kAllImps};
    for (std::size_t p = 0; p < std::size(presets); ++p)
        for (ImprovementSet imps : impSets) {
            SoakSpec spec;
            spec.trace = std::string("preset:") + presets[p] + ":" +
                         std::to_string(p + 1);
            spec.imps = imps;
            specs.push_back(std::move(spec));
        }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SoakSpec &spec = specs[i];
        ServeRequest req;
        req.trace = spec.trace;
        req.length = spec.length;
        Expected<CvpTrace> cvp = serve::resolveTrace(req);
        EXPECT_TRUE(cvp.ok()) << spec.trace;
        // Even specs prime the store (warm for the daemon); odd ones
        // compute store-free (cold for the daemon).
        SimResult direct = simulate(
            cvp.value(),
            SimRequest{.imps = spec.imps, .useStore = i % 2 == 0});
        spec.bits = direct.stats.toBits();
    }
    return specs;
}

/**
 * The soak body: @p threads concurrent clients, each running
 * @p perThread requests round-robin over the spec mix with
 * busy-retries, against a daemon on @p pool.  Asserts zero lost or
 * duplicated replies, every reply bit-identical to direct simulate(),
 * unique dispatch sequence numbers, and (when @p wantBusy) that the
 * bounded queue pushed back at least once.
 */
void
runSoak(ServeConfig cfg, par::ThreadPool &pool, int threads,
        int perThread, bool wantBusy, const std::string &storeDir)
{
    store::Store::setDirForTesting(storeDir);
    std::vector<SoakSpec> specs = makeSoakSpecs();

    ServeDaemon daemon(cfg, &pool);
    ASSERT_TRUE(daemon.start().ok());
    const std::uint64_t busyBefore = counter("serve.rejected.busy");
    const std::uint64_t servedBefore = counter("serve.served");

    std::atomic<int> failures{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::mutex seqMutex;
    std::set<std::uint64_t> seqs;

    auto worker = [&](int tid) {
        ServeClient client;
        if (!client.connect(cfg.socketPath).ok()) {
            failures.fetch_add(perThread);
            return;
        }
        for (int i = 0; i < perThread; ++i) {
            const SoakSpec &spec =
                specs[(tid + i) % specs.size()];
            ServeRequest req;
            req.op = Op::Sim;
            req.trace = spec.trace;
            req.length = spec.length;
            req.imps = spec.imps;
            req.id = std::to_string(tid) + "-" + std::to_string(i);
            ServeReply reply;
            Status st = client.callRetryBusy(req, reply, 200);
            if (!st.ok() || !reply.ok || reply.id != req.id) {
                failures.fetch_add(1);
                continue;
            }
            if (reply.stats.toBits() != spec.bits)
                mismatches.fetch_add(1);
            std::lock_guard<std::mutex> lock(seqMutex);
            if (!seqs.insert(reply.seq).second)
                failures.fetch_add(1);
        }
    };

    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (int t = 0; t < threads; ++t)
        clients.emplace_back(worker, t);
    for (std::thread &t : clients)
        t.join();

    const int total = threads * perThread;
    EXPECT_EQ(0, failures.load());
    EXPECT_EQ(0u, mismatches.load());
    EXPECT_EQ(static_cast<std::size_t>(total), seqs.size());
    EXPECT_EQ(servedBefore + static_cast<std::uint64_t>(total),
              counter("serve.served"));
    if (wantBusy)
        EXPECT_GT(counter("serve.rejected.busy"), busyBefore);
    daemon.stop();
}

TEST_F(ServeDaemonTest, SoakConcurrentMixedColdWarmJobs8)
{
    ServeConfig cfg = config();
    cfg.queueBound = 2;    // small bound: backpressure must engage
    par::ThreadPool pool(8);   // seven workers for sixteen clients
    runSoak(cfg, pool, /*threads=*/16, /*perThread=*/15,
            /*wantBusy=*/true, storeDir_);
}

TEST_F(ServeDaemonTest, SoakSerialPoolMatchesJobs1)
{
    ServeConfig cfg = config();
    cfg.queueBound = 32;
    par::ThreadPool pool(1);
    runSoak(cfg, pool, /*threads=*/4, /*perThread=*/8,
            /*wantBusy=*/false, storeDir_);
}

// ---------------------------------------------------------------------
// Chaos: socket-level faults plus a mid-soak daemon restart
// ---------------------------------------------------------------------

/** Disable the global fault injector on scope exit. */
struct ChaosGuard
{
    ~ChaosGuard() { resil::FaultInjector::global().disable(); }
};

/**
 * The hostile-time headline: reply wires suffer injected hard resets,
 * per-frame stalls and dribbled writes; a third of the requests race a
 * 1 ms deadline; and midway through, the daemon is stopped and a fresh
 * one takes over the same socket.  Clients treat every transport error
 * as "reconnect and resend".  The invariants: each request the client
 * sees answered is answered exactly once and for the right id, every
 * successful answer is bit-identical to direct simulate(), every
 * unsuccessful one is a *typed* timeout/busy -- and no request is lost
 * outright.
 */
TEST_F(ServeDaemonTest, ChaosSoakSurvivesSocketFaultsAndRestart)
{
    ChaosGuard guard;
    store::Store::setDirForTesting(storeDir_);
    std::vector<SoakSpec> specs = makeSoakSpecs();

    auto chaosSpec = resil::FaultSpec::parse(
        "conn-reset:0.4,conn-stall:0.4,partial-write:0.6");
    ASSERT_TRUE(chaosSpec.ok()) << chaosSpec.status().toString();
    resil::FaultInjector::global().configure(chaosSpec.value(), 11);

    ServeConfig cfg = config();
    cfg.queueBound = 32;
    cfg.writeTimeoutMs = 2000;
    par::ThreadPool pool(4);

    auto daemon = std::make_unique<ServeDaemon>(cfg, &pool);
    ASSERT_TRUE(daemon->start().ok());

    std::atomic<bool> stop{false};
    std::atomic<bool> restarted{false};
    std::atomic<int> successes{0}, timeouts{0}, lost{0};
    std::atomic<int> successAfterRestart{0};
    std::atomic<std::uint64_t> mismatches{0}, crossedReplies{0};

    auto worker = [&](int tid) {
        ServeClient client;
        bool connected = false;
        for (int i = 1; !stop.load(); ++i) {
            const SoakSpec &s = specs[(tid + i) % specs.size()];
            ServeRequest req;
            req.op = Op::Sim;
            req.trace = s.trace;
            req.length = s.length;
            req.imps = s.imps;
            req.id = std::to_string(tid) + "-" + std::to_string(i);
            if (i % 3 == 0)
                req.deadlineMs = 1;   // a third race a 1 ms deadline
            bool answered = false;
            for (int attempt = 0; attempt < 80 && !answered;
                 ++attempt) {
                if (!connected) {
                    client.close();
                    connected =
                        client.connect(cfg.socketPath, 200).ok();
                    if (!connected) {   // daemon mid-restart
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10));
                        continue;
                    }
                }
                ServeReply reply;
                if (!client.call(req, reply).ok()) {
                    // Chaos (or the restart) killed the wire; the
                    // contract is reconnect-and-resend.
                    connected = false;
                    continue;
                }
                if (reply.id != req.id) {
                    ++crossedReplies;
                    connected = false;
                    break;
                }
                if (reply.ok) {
                    if (reply.stats.toBits() != s.bits)
                        ++mismatches;
                    ++successes;
                    if (restarted.load())
                        ++successAfterRestart;
                    answered = true;
                } else if (reply.error.errorClass() ==
                           ErrorClass::Timeout) {
                    ++timeouts;   // typed; expected for 1 ms budgets
                    answered = true;
                } else if (reply.error.errorClass() ==
                           ErrorClass::Busy) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                } else {
                    ADD_FAILURE() << reply.error.toString();
                    answered = true;
                }
            }
            if (!answered)
                ++lost;
        }
    };

    std::vector<std::thread> clients;
    for (int t = 0; t < 6; ++t)
        clients.emplace_back(worker, t);

    // Let the soak run, then yank the daemon out from under it and
    // bring up a fresh one on the same socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    daemon->stop();
    daemon = std::make_unique<ServeDaemon>(cfg, &pool);
    ASSERT_TRUE(daemon->start().ok());
    restarted.store(true);

    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(0u, mismatches.load());
    EXPECT_EQ(0u, crossedReplies.load());
    EXPECT_EQ(0, lost.load());
    EXPECT_GT(successes.load(), 0);
    EXPECT_GT(successAfterRestart.load(), 0);
    daemon->stop();
}

} // namespace
} // namespace trb
