/**
 * @file
 * trace_served -- the multi-tenant simulation daemon.
 *
 *   TRB_STORE=/var/cache/trb trace_served --socket /run/trb.sock
 *
 * Listens on a Unix-domain socket, accepts trb-serve-v1 requests (see
 * docs/serving.md) and runs them on max(1, TRB_JOBS - 1) worker threads
 * of its own, with per-client round-robin fairness and a bounded queue.
 * Warm requests are answered straight from the trb::store artifact
 * cache.  A request's deadline_ms is enforced by the sim it runs, and a
 * client that hangs up cancels its own sims: the daemon runs no timer
 * thread.
 *
 * SIGTERM/SIGINT trigger a graceful shutdown: queued requests get a
 * typed `busy` reply, inflight simulations finish and flush, the
 * socket is unlinked, and the process exits 0.  The usual telemetry
 * surface applies: TRB_OBS_SAMPLE_MS streams serve.* gauges as JSONL
 * while the daemon runs, TRB_OBS_JSON/TRB_OBS_CSV dump the registry at
 * exit.
 *
 * Exit status: 0 clean shutdown, 2 usage or bind error.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/env.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "serve/server.hh"

namespace
{

using namespace trb;

void
usage(std::ostream &os)
{
    os << "usage: trace_served [--socket PATH] [--queue N] [--write-ms N]\n"
          "\n"
          "Serve trb-serve-v1 simulation requests over a Unix-domain\n"
          "socket until SIGTERM/SIGINT.  docs/serving.md documents the\n"
          "protocol and operations.\n"
          "\n"
          "options (flags win over the environment):\n"
          "  --socket PATH   listening socket (default $TRB_SERVE_SOCKET\n"
          "                  or trb_serve.sock)\n"
          "  --queue N       queued-request bound before typed busy\n"
          "                  replies (default $TRB_SERVE_QUEUE or 64)\n"
          "  --write-ms N    per-reply peer-readiness bound; 0 blocks\n"
          "                  (default $TRB_SERVE_WRITE_MS or 5000)\n"
          "  -h, --help      this text\n";
}

/** write() end of the self-pipe the signal handler pokes. */
int g_signal_pipe_wr = -1;

void
onSignal(int)
{
    const char byte = 1;
    // Best effort; a full pipe means a wake-up is already pending.
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe_wr, &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServeConfig cfg = serve::ServeConfig::fromEnv();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "trace_served: " << name
                          << " needs an argument\n";
                return nullptr;
            }
            return argv[++i];
        };
        auto u64 = [&](const char *name, std::uint64_t &out,
                       bool allowZero) {
            const char *v = value(name);
            if (!v)
                return false;
            char *end = nullptr;
            unsigned long long parsed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' ||
                (parsed == 0 && !allowZero)) {
                std::cerr << "trace_served: " << name << " wants a "
                          << (allowZero ? "non-negative" : "positive")
                          << " integer, got '" << v << "'\n";
                return false;
            }
            out = parsed;
            return true;
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--socket") {
            const char *v = value("--socket");
            if (!v)
                return 2;
            cfg.socketPath = v;
        } else if (arg == "--queue") {
            std::uint64_t bound = 0;
            if (!u64("--queue", bound, false))
                return 2;
            cfg.queueBound = static_cast<std::size_t>(bound);
        } else if (arg == "--write-ms") {
            if (!u64("--write-ms", cfg.writeTimeoutMs, true))
                return 2;
        } else {
            std::cerr << "trace_served: unknown argument '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    // Self-pipe: the handler only writes a byte; main() blocks on the
    // read end, so all real shutdown work happens outside signal
    // context.
    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        std::cerr << "trace_served: pipe: " << std::strerror(errno)
                  << "\n";
        return 2;
    }
    g_signal_pipe_wr = pipeFds[1];
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    auto sampler = obs::Sampler::startFromEnv();

    serve::ServeDaemon daemon(cfg);
    if (Status st = daemon.start(); !st.ok()) {
        std::cerr << "trace_served: " << st.toString() << "\n";
        return 2;
    }
    std::cout << "trace_served: listening on " << cfg.socketPath
              << std::endl;

    // Sleep until a signal arrives.
    char byte = 0;
    while (::read(pipeFds[0], &byte, 1) < 0 && errno == EINTR) {
    }

    std::cout << "trace_served: shutting down" << std::endl;
    daemon.stop();
    std::cout << "trace_served: served " << daemon.served()
              << " request(s)" << std::endl;

    sampler.reset();
    obs::finish();
    ::close(pipeFds[0]);
    ::close(pipeFds[1]);
    return 0;
}
