/**
 * @file
 * trace_client -- submit work to a running trace_served.
 *
 *   trace_client --ping
 *   trace_client --trace suite:cvp1:server_017 --imps All_imps
 *   trace_client --file requests.jsonl --retry-busy
 *   trace_client --stats
 *
 * One process = one connection = one fairness lane on the daemon.
 * --file mode sends one request per line (each line a trb-serve-v1
 * request document) and waits for each reply before sending the next.
 * --stats prints the daemon's counter snapshot, one `path value` line
 * per counter and gauge.
 *
 * Exit status: 0 all replies ok, 1 an error reply (other than busy or
 * timeout), 2 usage/connect/transport failure, 3 still busy after
 * retries, 4 a deadline expired (a typed `timeout` reply).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/env.hh"
#include "serve/client.hh"

namespace
{

using namespace trb;

void
usage(std::ostream &os)
{
    os << "usage: trace_client [--socket PATH] --ping\n"
          "       trace_client [--socket PATH] --stats\n"
          "       trace_client [--socket PATH] --trace SPEC [options]\n"
          "       trace_client [--socket PATH] --file REQUESTS.jsonl "
          "[options]\n"
          "\n"
          "Submit trb-serve-v1 requests to a trace_served daemon (see\n"
          "docs/serving.md).\n"
          "\n"
          "options:\n"
          "  --socket PATH   daemon socket (default $TRB_SERVE_SOCKET\n"
          "                  or trb_serve.sock)\n"
          "  --ping          liveness probe\n"
          "  --stats         print the serve.*/store.* counter snapshot\n"
          "  --trace SPEC    one simulation: suite:<suite>:<name>,\n"
          "                  preset:<kind>:<seed> or file:<path>\n"
          "  --length N      synthetic trace length (default 50000)\n"
          "  --imps NAME     improvement set (default No_imp)\n"
          "  --config NAME   modern or ipc1 (default modern)\n"
          "  --warmup F      warmup fraction in [0,1) (default 0)\n"
          "  --no-store      ask the daemon to bypass the artifact store\n"
          "  --id TAG        correlation tag echoed in the reply\n"
          "  --file PATH     send each line of PATH as one request\n"
          "  --retry-busy    back off and resubmit on busy replies\n"
          "                  (jittered per process, never in lockstep)\n"
          "  --deadline-ms N answer-by deadline per sim request; an\n"
          "                  expired one exits 4 (default\n"
          "                  $TRB_SERVE_DEADLINE_MS or unbounded)\n"
          "  --connect-timeout-ms N\n"
          "                  give up connecting after N ms (exit 2;\n"
          "                  default blocks)\n"
          "  -h, --help      this text\n";
}

/** Outcome of one reply, folded into the process exit code. */
struct Tally
{
    bool error = false;     //!< an error reply other than busy/timeout
    bool busy = false;      //!< busy after (any) retries
    bool timeout = false;   //!< a deadline expired
};

void
printReply(const serve::ServeReply &reply, Tally &tally)
{
    if (!reply.ok) {
        if (reply.error.errorClass() == ErrorClass::Busy)
            tally.busy = true;
        else if (reply.error.errorClass() == ErrorClass::Timeout)
            tally.timeout = true;
        else
            tally.error = true;
        std::printf("%s%s%s: %s\n", reply.op.c_str(),
                    reply.id.empty() ? "" : " ",
                    reply.id.c_str(), reply.error.toString().c_str());
        return;
    }
    if (reply.op == "sim") {
        std::printf("sim%s%s: seq %llu ipc %.4f insts %llu cycles %llu "
                    "stats_from_store %d\n",
                    reply.id.empty() ? "" : " ", reply.id.c_str(),
                    static_cast<unsigned long long>(reply.seq),
                    reply.stats.ipc(),
                    static_cast<unsigned long long>(
                        reply.stats.instructions),
                    static_cast<unsigned long long>(reply.stats.cycles),
                    reply.statsFromStore ? 1 : 0);
    } else if (reply.op == "ping") {
        std::printf("ping: ok schema %s uptime %.3fs\n",
                    reply.raw.str("schema").c_str(),
                    reply.raw.number("uptime_s"));
    }
}

/** Render the stats reply: a header, then one `path value` line each. */
void
printStats(const serve::ServeReply &reply)
{
    std::printf("schema %s uptime %.3fs jobs %.0f queue_bound %.0f\n",
                reply.raw.str("schema").c_str(),
                reply.raw.number("uptime_s"), reply.raw.number("jobs"),
                reply.raw.number("queue_bound"));
    for (const auto &[path, value] : reply.raw.numbers)
        if (path.rfind("counters/", 0) == 0 ||
            path.rfind("gauges/", 0) == 0)
            std::printf("  %s %.0f\n",
                        path.substr(path.find('/') + 1).c_str(), value);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath = env::str("TRB_SERVE_SOCKET",
                                      "trb_serve.sock");
    std::string filePath, impsName = "No_imp";
    serve::ServeRequest req;
    req.deadlineMs = env::u64("TRB_SERVE_DEADLINE_MS", 0);
    unsigned connectTimeoutMs = 0;
    bool doPing = false, doStats = false, retryBusy = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "trace_client: " << name
                          << " needs an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--socket") {
            const char *v = value("--socket");
            if (!v)
                return 2;
            socketPath = v;
        } else if (arg == "--ping") {
            doPing = true;
        } else if (arg == "--stats") {
            doStats = true;
        } else if (arg == "--trace") {
            const char *v = value("--trace");
            if (!v)
                return 2;
            req.op = serve::Op::Sim;
            req.trace = v;
        } else if (arg == "--length") {
            const char *v = value("--length");
            if (!v)
                return 2;
            req.length = std::strtoull(v, nullptr, 10);
        } else if (arg == "--imps") {
            const char *v = value("--imps");
            if (!v)
                return 2;
            impsName = v;
        } else if (arg == "--config") {
            const char *v = value("--config");
            if (!v)
                return 2;
            if (std::strcmp(v, "ipc1") == 0)
                req.ipc1 = true;
            else if (std::strcmp(v, "modern") != 0) {
                std::cerr << "trace_client: --config wants modern or "
                             "ipc1\n";
                return 2;
            }
        } else if (arg == "--warmup") {
            const char *v = value("--warmup");
            if (!v)
                return 2;
            req.warmupFraction = std::strtod(v, nullptr);
        } else if (arg == "--no-store") {
            req.useStore = false;
        } else if (arg == "--id") {
            const char *v = value("--id");
            if (!v)
                return 2;
            req.id = v;
        } else if (arg == "--file") {
            const char *v = value("--file");
            if (!v)
                return 2;
            filePath = v;
        } else if (arg == "--retry-busy") {
            retryBusy = true;
        } else if (arg == "--deadline-ms") {
            const char *v = value("--deadline-ms");
            if (!v)
                return 2;
            req.deadlineMs = std::strtoull(v, nullptr, 10);
        } else if (arg == "--connect-timeout-ms") {
            const char *v = value("--connect-timeout-ms");
            if (!v)
                return 2;
            connectTimeoutMs = static_cast<unsigned>(
                std::strtoul(v, nullptr, 10));
        } else {
            std::cerr << "trace_client: unknown argument '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    const int modes = int(doPing) + int(doStats) +
                      int(req.op == serve::Op::Sim) +
                      int(!filePath.empty());
    if (modes != 1) {
        std::cerr << "trace_client: pick exactly one of --ping, "
                     "--stats, --trace, --file\n";
        usage(std::cerr);
        return 2;
    }
    if (!parseImprovementSet(impsName, req.imps)) {
        std::cerr << "trace_client: unknown improvement set '"
                  << impsName << "'\n";
        return 2;
    }

    serve::ServeClient client;
    // A pid-keyed retry jitter: many clients rejected together back
    // off on distinct (but per-process reproducible) schedules.
    client.setRetryKey("trace_client-" + std::to_string(::getpid()));
    if (Status st = client.connect(socketPath, connectTimeoutMs);
        !st.ok()) {
        std::cerr << "trace_client: " << st.toString() << "\n";
        return 2;
    }

    Tally tally;
    serve::ServeReply reply;

    auto callOnce = [&](const serve::ServeRequest &r) -> bool {
        Status st = retryBusy ? client.callRetryBusy(r, reply)
                              : client.call(r, reply);
        if (!st.ok()) {
            std::cerr << "trace_client: " << st.toString() << "\n";
            return false;
        }
        return true;
    };

    if (doPing) {
        req.op = serve::Op::Ping;
        if (!callOnce(req))
            return 2;
        printReply(reply, tally);
    } else if (doStats) {
        req.op = serve::Op::Stats;
        if (!callOnce(req))
            return 2;
        printStats(reply);
    } else if (!filePath.empty()) {
        std::ifstream in(filePath);
        if (!in) {
            std::cerr << "trace_client: cannot read " << filePath
                      << "\n";
            return 2;
        }
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            if (line.empty())
                continue;
            serve::ServeRequest fileReq;
            if (Status st = serve::parseRequest(line, fileReq);
                !st.ok()) {
                std::cerr << "trace_client: " << filePath << ":"
                          << lineno << ": " << st.toString() << "\n";
                return 2;
            }
            if (!callOnce(fileReq))
                return 2;
            printReply(reply, tally);
        }
    } else {
        if (!callOnce(req))
            return 2;
        printReply(reply, tally);
    }

    if (tally.busy)
        return 3;
    if (tally.timeout)
        return 4;
    return tally.error ? 1 : 0;
}
