#include "serve/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace trb
{
namespace serve
{

namespace
{

/**
 * Write all of @p data, retrying EINTR and short writes.  Sockets get
 * MSG_NOSIGNAL (a peer that vanished mid-reply must surface as EPIPE,
 * not kill the daemon); plain fds (test pipes) fall back to write().
 */
Status
writeAll(int fd, const char *data, std::size_t size,
         unsigned timeoutMs = 0)
{
    std::size_t done = 0;
    while (done < size) {
        if (timeoutMs > 0) {
            // Bound write readiness, not the syscall: writes are
            // serialised per connection, so a ready socket accepts at
            // least one byte without blocking.
            struct pollfd p = {fd, POLLOUT, 0};
            int r = ::poll(&p, 1, static_cast<int>(timeoutMs));
            if (r == 0)
                return Status::timeout(
                           "peer not accepting writes after " +
                           std::to_string(timeoutMs) + " ms")
                    .rule("serve.write");
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                return Status::ioError(std::string("poll: ") +
                                       std::strerror(errno))
                    .rule("serve.io");
            }
        }
        ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("write: ") +
                                   std::strerror(errno))
                .rule("serve.io");
        }
        done += static_cast<std::size_t>(n);
    }
    return Status{};
}

/**
 * Read exactly @p size bytes.  @p sawAny reports whether anything at
 * all arrived before EOF, so the caller can tell a clean close from a
 * truncated frame.
 */
Status
readAll(int fd, char *data, std::size_t size, bool *sawAny = nullptr)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::read(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("read: ") +
                                   std::strerror(errno))
                .rule("serve.io");
        }
        if (n == 0)
            return Status::truncated("connection closed mid-frame")
                .rule("serve.frame");
        done += static_cast<std::size_t>(n);
        if (sawAny)
            *sawAny = true;
    }
    return Status{};
}

/** Render a double the way JSON wants it (shortest exact form). */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // %g can emit "nan"/"inf", which JSON rejects; clamp to 0.
    if (!std::strpbrk(buf, "0123456789"))
        return "0";
    return buf;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
      case Op::Sim:
        return "sim";
      case Op::Ping:
        return "ping";
      case Op::Stats:
        return "stats";
    }
    return "unknown";
}

Status
writeFrame(int fd, const std::string &payload)
{
    return writeFrame(fd, payload, WriteOptions{});
}

Status
writeFrame(int fd, const std::string &payload, const WriteOptions &opts)
{
    if (payload.size() > kMaxFrameBytes)
        return Status::internal("frame payload exceeds kMaxFrameBytes")
            .rule("serve.frame-size");
    std::string frame = std::to_string(payload.size());
    frame += '\n';
    frame += payload;
    frame += '\n';

    const resil::FaultPlan *chaos =
        (opts.chaos && opts.chaos->anyConnFault()) ? opts.chaos : nullptr;
    if (!chaos)
        return writeAll(fd, frame.data(), frame.size(), opts.timeoutMs);

    if (chaos->connReset &&
        opts.frameIndex >= chaos->connResetAfterFrames()) {
        // A hard shutdown -- not close() -- so the owner's fd number
        // stays valid until its normal teardown path runs.
        ::shutdown(fd, SHUT_RDWR);
        return Status::ioError("injected conn-reset")
            .rule("serve.chaos");
    }
    if (chaos->connStall)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            chaos->connStallMsFor(opts.frameIndex)));
    std::size_t chunk = frame.size();
    if (chaos->partialWrite)
        chunk = chaos->partialWriteChunkFor(opts.frameIndex);
    for (std::size_t done = 0; done < frame.size();) {
        std::size_t n = std::min(chunk, frame.size() - done);
        if (Status st = writeAll(fd, frame.data() + done, n,
                                 opts.timeoutMs);
            !st.ok())
            return st;
        done += n;
    }
    return Status{};
}

Status
validateSocketPath(const std::string &path)
{
    constexpr std::size_t cap = sizeof(sockaddr_un{}.sun_path) - 1;
    if (path.empty())
        return Status::badRequest("socket path is empty")
            .rule("serve.socket-path");
    if (path.size() > cap)
        return Status::badRequest(
                   "socket path is " + std::to_string(path.size()) +
                   " bytes; sun_path holds at most " +
                   std::to_string(cap))
            .rule("serve.socket-path");
    return Status{};
}

Status
readFrame(int fd, std::string &payload)
{
    // Length prefix: a short ASCII digit run ended by '\n'.  Read it
    // byte-wise -- at most 8 iterations, and it keeps the fd free of
    // any buffering state between frames.
    char digits[9];
    std::size_t ndigits = 0;
    for (;;) {
        char c = 0;
        bool sawAny = false;
        Status st = readAll(fd, &c, 1, &sawAny);
        if (!st.ok()) {
            if (st.errorClass() == ErrorClass::TruncatedInput &&
                !sawAny && ndigits == 0)
                return Status::truncated("connection closed")
                    .rule("serve.closed");
            return st;
        }
        if (c == '\n')
            break;
        if (c < '0' || c > '9' || ndigits == sizeof(digits) - 1)
            return Status::corrupt("malformed frame length prefix")
                .rule("serve.frame");
        digits[ndigits++] = c;
    }
    if (ndigits == 0)
        return Status::corrupt("empty frame length prefix")
            .rule("serve.frame");
    digits[ndigits] = '\0';
    std::size_t len = static_cast<std::size_t>(
        std::strtoull(digits, nullptr, 10));
    if (len > kMaxFrameBytes)
        return Status::corrupt("frame length exceeds the 4 MiB cap")
            .rule("serve.frame-size");

    payload.resize(len);
    if (len > 0)
        if (Status st = readAll(fd, payload.data(), len); !st.ok())
            return st;
    char nl = 0;
    if (Status st = readAll(fd, &nl, 1); !st.ok())
        return st;
    if (nl != '\n')
        return Status::corrupt("frame payload not newline-terminated")
            .rule("serve.frame");
    return Status{};
}

bool
isCleanClose(const Status &st)
{
    return st.errorClass() == ErrorClass::TruncatedInput &&
           st.ruleViolated() == "serve.closed";
}

Status
parseRequest(const std::string &json, ServeRequest &out)
{
    JsonFlat doc;
    std::string err;
    if (!parseJson(json, doc, &err))
        return Status::badRequest("malformed JSON: " + err)
            .rule("serve.json");

    out = ServeRequest{};
    out.id = doc.str("id");

    const std::string op = doc.str("op");
    if (op == "ping")
        out.op = Op::Ping;
    else if (op == "stats")
        out.op = Op::Stats;
    else if (op == "sim")
        out.op = Op::Sim;
    else
        return Status::badRequest(
                   op.empty() ? "missing \"op\" field"
                              : "unknown op \"" + op + "\"")
            .rule("serve.op");

    if (out.op != Op::Sim)
        return Status{};

    out.trace = doc.str("trace");
    if (out.trace.empty())
        return Status::badRequest("op \"sim\" requires a \"trace\" spec")
            .rule("serve.trace");

    double length = doc.number("length", 50000);
    if (length < 1000 || length > 1e12 ||
        length != static_cast<double>(
                      static_cast<std::uint64_t>(length)))
        return Status::badRequest(
                   "\"length\" must be an integer in [1000, 1e12]")
            .rule("serve.length");
    out.length = static_cast<std::uint64_t>(length);

    const std::string imps = doc.str("imps", "No_imp");
    if (!parseImprovementSet(imps, out.imps))
        return Status::badRequest("unknown improvement set \"" + imps +
                                  "\"")
            .rule("serve.imps");

    const std::string config = doc.str("config", "modern");
    if (config == "modern")
        out.ipc1 = false;
    else if (config == "ipc1")
        out.ipc1 = true;
    else
        return Status::badRequest("unknown config \"" + config +
                                  "\" (want \"modern\" or \"ipc1\")")
            .rule("serve.config");

    out.warmupFraction = doc.number("warmup_fraction", 0.0);
    if (!(out.warmupFraction >= 0.0) || out.warmupFraction >= 1.0)
        return Status::badRequest(
                   "\"warmup_fraction\" must be in [0, 1)")
            .rule("serve.warmup");

    out.useStore = doc.number("use_store", 1.0) != 0.0;

    double deadline = doc.number("deadline_ms", 0.0);
    if (deadline < 0 || deadline > 1e9 ||
        deadline != static_cast<double>(
                        static_cast<std::uint64_t>(deadline)))
        return Status::badRequest(
                   "\"deadline_ms\" must be an integer in [0, 1e9]")
            .rule("serve.deadline");
    out.deadlineMs = static_cast<std::uint64_t>(deadline);
    return Status{};
}

std::string
requestJson(const ServeRequest &req)
{
    std::string s = "{\"op\": ";
    s += obs::jsonQuote(opName(req.op));
    if (!req.id.empty())
        s += ", \"id\": " + obs::jsonQuote(req.id);
    if (req.op == Op::Sim) {
        s += ", \"trace\": " + obs::jsonQuote(req.trace);
        s += ", \"length\": " + std::to_string(req.length);
        s += ", \"imps\": " + obs::jsonQuote(improvementSetName(req.imps));
        s += ", \"config\": ";
        s += req.ipc1 ? "\"ipc1\"" : "\"modern\"";
        s += ", \"warmup_fraction\": " + jsonNumber(req.warmupFraction);
        s += ", \"use_store\": ";
        s += req.useStore ? "true" : "false";
        if (req.deadlineMs > 0)
            s += ", \"deadline_ms\": " + std::to_string(req.deadlineMs);
    }
    s += "}";
    return s;
}

namespace
{

/** "suite:cvp1:server_017"-style spec -> generated suite trace. */
Expected<CvpTrace>
resolveSuiteTrace(const std::string &suite, const std::string &name,
                  std::uint64_t length)
{
    std::vector<TraceSpec> specs;
    if (suite == "cvp1")
        specs = cvp1PublicSuite(length);
    else if (suite == "ipc1")
        specs = ipc1Suite(length);
    else
        return Status::badRequest("unknown suite \"" + suite +
                                  "\" (want cvp1 or ipc1)")
            .rule("serve.trace");
    for (const TraceSpec &spec : specs)
        if (spec.name == name)
            return TraceGenerator(spec.params).generate(spec.length);
    return Status::badRequest("no trace \"" + name + "\" in the " +
                              suite + " suite")
        .rule("serve.trace");
}

/** "preset:server:7"-style spec -> generated preset trace. */
Expected<CvpTrace>
resolvePresetTrace(const std::string &kind, const std::string &seedStr,
                   std::uint64_t length)
{
    char *end = nullptr;
    std::uint64_t seed = std::strtoull(seedStr.c_str(), &end, 10);
    if (end == seedStr.c_str() || *end != '\0')
        return Status::badRequest("preset seed \"" + seedStr +
                                  "\" is not an integer")
            .rule("serve.trace");
    WorkloadParams params;
    if (kind == "int")
        params = computeIntParams(seed);
    else if (kind == "fp")
        params = computeFpParams(seed);
    else if (kind == "crypto")
        params = cryptoParams(seed);
    else if (kind == "server")
        params = serverParams(seed);
    else if (kind == "membound")
        params = memoryBoundParams(seed);
    else
        return Status::badRequest(
                   "unknown preset \"" + kind +
                   "\" (want int/fp/crypto/server/membound)")
            .rule("serve.trace");
    return TraceGenerator(params).generate(length);
}

} // namespace

Expected<CvpTrace>
resolveTrace(const ServeRequest &req)
{
    const std::string &spec = req.trace;
    std::size_t colon = spec.find(':');
    const std::string scheme = spec.substr(0, colon);
    if (scheme == "file" && colon != std::string::npos)
        return tryReadCvpTrace(spec.substr(colon + 1));
    if (scheme == "suite" || scheme == "preset") {
        std::size_t colon2 = spec.find(':', colon + 1);
        if (colon2 != std::string::npos) {
            const std::string mid =
                spec.substr(colon + 1, colon2 - colon - 1);
            const std::string leaf = spec.substr(colon2 + 1);
            return scheme == "suite"
                       ? resolveSuiteTrace(mid, leaf, req.length)
                       : resolvePresetTrace(mid, leaf, req.length);
        }
    }
    return Status::badRequest(
               "unparseable trace spec \"" + spec +
               "\" (want suite:<suite>:<name>, preset:<kind>:<seed> "
               "or file:<path>)")
        .rule("serve.trace");
}

std::string
errorReplyJson(const std::string &op, const std::string &id,
               const Status &st)
{
    std::string s = "{\"ok\": false";
    if (!op.empty())
        s += ", \"op\": " + obs::jsonQuote(op);
    if (!id.empty())
        s += ", \"id\": " + obs::jsonQuote(id);
    s += ", \"error\": {\"class\": ";
    s += obs::jsonQuote(errorClassName(st.errorClass()));
    s += ", \"message\": " + obs::jsonQuote(st.message());
    if (!st.ruleViolated().empty())
        s += ", \"rule\": " + obs::jsonQuote(st.ruleViolated());
    s += "}}";
    return s;
}

std::string
pingReplyJson(const std::string &id, double uptimeSeconds)
{
    std::string s = "{\"ok\": true, \"op\": \"ping\"";
    if (!id.empty())
        s += ", \"id\": " + obs::jsonQuote(id);
    s += ", \"schema\": ";
    s += obs::jsonQuote(kServeSchema);
    s += ", \"uptime_s\": " + jsonNumber(uptimeSeconds);
    s += "}";
    return s;
}

std::string
simReplyJson(const std::string &id, const SimResult &result,
             std::uint64_t seq)
{
    std::string s = "{\"ok\": true, \"op\": \"sim\"";
    if (!id.empty())
        s += ", \"id\": " + obs::jsonQuote(id);
    s += ", \"seq\": " + std::to_string(seq);
    s += ", \"stats_from_store\": ";
    s += result.statsFromStore ? "true" : "false";
    // Convenience doubles for humans and dashboards; "bits" below is
    // the authoritative, exact payload.
    s += ", \"ipc\": " + jsonNumber(result.stats.ipc());
    s += ", \"instructions\": " +
         std::to_string(result.stats.instructions);
    s += ", \"cycles\": " + std::to_string(result.stats.cycles);
    s += ", \"bits\": [";
    const std::vector<std::uint64_t> bits = result.stats.toBits();
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (i)
            s += ", ";
        s += obs::jsonQuote(hexU64(bits[i]));
    }
    s += "]}";
    return s;
}

std::string
statsReplyJson(const std::string &id, double uptimeSeconds,
               std::size_t jobs, std::size_t queueBound)
{
    auto servedPath = [](const std::string &path) {
        return path.rfind("serve.", 0) == 0 ||
               path.rfind("store.", 0) == 0 ||
               path.rfind("resil.", 0) == 0;
    };
    obs::MetricsRegistry::Snapshot snap =
        obs::MetricsRegistry::global().snapshot();

    std::string s = "{\"ok\": true, \"op\": \"stats\"";
    if (!id.empty())
        s += ", \"id\": " + obs::jsonQuote(id);
    s += ", \"schema\": ";
    s += obs::jsonQuote(kServeSchema);
    s += ", \"uptime_s\": " + jsonNumber(uptimeSeconds);
    s += ", \"jobs\": " + std::to_string(jobs);
    s += ", \"queue_bound\": " + std::to_string(queueBound);
    s += ", \"counters\": {";
    bool first = true;
    for (const auto &entry : snap.counters) {
        if (!servedPath(entry.path))
            continue;
        if (!first)
            s += ", ";
        first = false;
        s += obs::jsonQuote(entry.path) + ": " +
             std::to_string(entry.value);
    }
    s += "}, \"gauges\": {";
    first = true;
    for (const auto &entry : snap.gauges) {
        if (!servedPath(entry.path))
            continue;
        if (!first)
            s += ", ";
        first = false;
        s += obs::jsonQuote(entry.path) + ": " + jsonNumber(entry.value);
    }
    s += "}}";
    return s;
}

namespace
{

/**
 * Rebuild a Status from its wire rendering (class/message/rule).  A
 * class name this build does not know, or "ok", decodes as internal.
 */
Status
statusFromWire(const std::string &cls, const std::string &message,
               const std::string &rule)
{
    const ErrorClass named = errorClassNamed(cls).value_or(ErrorClass::Ok);
    Status st = Status::of(
        named == ErrorClass::Ok ? ErrorClass::Internal : named, message);
    if (!rule.empty())
        st.rule(rule);
    return st;
}

} // namespace

Status
parseReply(const std::string &json, ServeReply &out)
{
    out = ServeReply{};
    std::string err;
    if (!parseJson(json, out.raw, &err))
        return Status::corrupt("malformed reply JSON: " + err)
            .rule("serve.reply");

    if (!out.raw.hasNumber("ok"))
        return Status::corrupt("reply lacks an \"ok\" field")
            .rule("serve.reply");
    out.ok = out.raw.number("ok") != 0.0;
    out.op = out.raw.str("op");
    out.id = out.raw.str("id");

    if (!out.ok) {
        if (!out.raw.strings.count("error/class"))
            return Status::corrupt(
                       "error reply lacks an \"error/class\" string")
                .rule("serve.reply");
        out.error = statusFromWire(out.raw.str("error/class"),
                                   out.raw.str("error/message"),
                                   out.raw.str("error/rule"));
        return Status{};
    }

    if (out.op != "sim")
        return Status{};

    out.seq = static_cast<std::uint64_t>(out.raw.number("seq"));
    out.statsFromStore = out.raw.number("stats_from_store") != 0.0;

    std::vector<std::uint64_t> bits;
    for (std::size_t i = 0;; ++i) {
        const std::string path = "bits/" + std::to_string(i);
        auto it = out.raw.strings.find(path);
        if (it == out.raw.strings.end())
            break;
        char *end = nullptr;
        bits.push_back(std::strtoull(it->second.c_str(), &end, 16));
        if (end == it->second.c_str() || *end != '\0')
            return Status::corrupt("non-hex stat bits at " + path)
                .rule("serve.bits");
    }
    if (!SimStats::fromBits(bits, out.stats))
        return Status::corrupt(
                   "sim reply bits do not match this build's stat "
                   "layout")
            .rule("serve.bits");
    return Status{};
}

} // namespace serve
} // namespace trb
