#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/simulator.hh"

namespace trb
{
namespace serve
{

namespace
{

obs::MetricsRegistry &
reg()
{
    return obs::MetricsRegistry::global();
}

} // namespace

Status
ServeConfig::validate() const
{
    return validateSocketPath(socketPath);
}

ServeConfig
ServeConfig::fromEnv()
{
    ServeConfig cfg;
    cfg.socketPath = env::str("TRB_SERVE_SOCKET", cfg.socketPath);
    cfg.queueBound = static_cast<std::size_t>(
        env::u64("TRB_SERVE_QUEUE", cfg.queueBound));
    cfg.writeTimeoutMs = env::u64("TRB_SERVE_WRITE_MS",
                                  cfg.writeTimeoutMs);
    if (cfg.queueBound == 0)
        trb_fatal("TRB_SERVE_QUEUE must be at least 1");
    return cfg;
}

ServeDaemon::ServeDaemon(ServeConfig cfg, par::ThreadPool *pool)
    : cfg_(std::move(cfg)),
      jobs_(pool ? pool->jobs() : par::jobsFromEnv()),
      queue_(cfg_.queueBound)
{
}

ServeDaemon::~ServeDaemon()
{
    stop();
}

double
ServeDaemon::uptimeSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - startTime_)
        .count();
}

Status
ServeDaemon::start()
{
    if (running_)
        return Status::internal("daemon already running")
            .rule("serve.start");

    // Validate before touching the filesystem: an over-long path would
    // otherwise be silently truncated by strncpy and bind something
    // other than what the operator asked for.
    if (Status st = cfg_.validate(); !st.ok())
        return st.at(cfg_.socketPath);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno))
            .rule("serve.socket");

    // Replace a stale socket file from a crashed predecessor.
    ::unlink(cfg_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status st = Status::ioError(std::string("bind: ") +
                                    std::strerror(errno))
                        .at(cfg_.socketPath)
                        .rule("serve.socket");
        ::close(listenFd_);
        listenFd_ = -1;
        return st;
    }
    if (::listen(listenFd_, 64) != 0) {
        Status st = Status::ioError(std::string("listen: ") +
                                    std::strerror(errno))
                        .at(cfg_.socketPath)
                        .rule("serve.socket");
        ::close(listenFd_);
        listenFd_ = -1;
        return st;
    }

    startTime_ = std::chrono::steady_clock::now();
    stopping_ = false;
    running_ = true;
    reg().setGauge("serve.inflight", 0.0);
    reg().setGauge("serve.queue_depth", 0.0);
    reg().setGauge("serve.inflight_age_ms", 0.0);
    // One worker per job beyond the first, and at least one.
    const std::size_t workers = jobs_ > 1 ? jobs_ - 1 : 1;
    simStarts_ = std::vector<Stamp>(workers);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    for (Stamp &simStart : simStarts_)
        workers_.emplace_back([this, &simStart] { workerLoop(simStart); });
    trb_inform("trace_served listening on ", cfg_.socketPath,
               " (jobs ", jobs_, ", workers ", workers, ", queue ",
               cfg_.queueBound, ")");
    return Status{};
}

void
ServeDaemon::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();

    // Unblock accept(); on Linux a shutdown listening socket returns
    // EINVAL from accept, which the loop treats as "time to go".
    ::shutdown(listenFd_, SHUT_RDWR);
    acceptThread_.join();

    // Workers pop nothing more: everything still queued gets a typed
    // shutdown-busy reply before anything is waited on.
    Job job;
    while (queue_.pop(job))
        sendReply(job.conn,
                  errorReplyJson("sim", job.req.id,
                                 Status::busy("server shutting down")
                                     .rule("serve.shutdown")),
                  /*settlesJob=*/true);
    reg().setGauge("serve.queue_depth", 0.0);

    // Let the workers finish the sims they are running.  A sim with a
    // deadline cancels itself when it expires, so none holds shutdown
    // hostage past its budget.
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();

    // Hang up every connection; the readers see EOF and exit.
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        for (auto &conn : conns_)
            ::shutdown(conn->fd, SHUT_RDWR);
    }
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        for (auto &conn : conns_) {
            if (conn->reader.joinable())
                conn->reader.join();
            ::close(conn->fd);
        }
        conns_.clear();
    }

    // Late pushes that raced the drain go unanswered (the peer is
    // gone); discard them so nothing dangles.
    while (queue_.pop(job)) {
    }

    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(cfg_.socketPath.c_str());
    running_ = false;
    trb_inform("trace_served stopped (", served_.load(),
               " requests served)");
}

void
ServeDaemon::reapFinishedConns()
{
    std::lock_guard<std::mutex> lock(connsMutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
        Conn &conn = **it;
        if (conn.done && conn.pendingJobs == 0) {
            // The last job settled under writeMutex: wait until its
            // worker has let go of it.
            {
                std::lock_guard<std::mutex> settled(conn.writeMutex);
            }
            conn.reader.join();
            ::close(conn.fd);
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ServeDaemon::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;   // closed or shut down: stopping
        }
        if (stopping_) {
            ::close(fd);
            return;
        }
        reg().addCounter("serve.connections");
        {
            std::lock_guard<std::mutex> lock(connsMutex_);
            conns_.push_back(std::make_unique<Conn>());
            Conn *conn = conns_.back().get();
            conn->fd = fd;
            conn->client = "conn-" + std::to_string(++connCounter_);
            // Resolve chaos once per connection: the plan is a pure
            // function of (spec, seed, lane name), so a test can
            // predict which lanes are afflicted.
            resil::FaultInjector &inj = resil::FaultInjector::global();
            if (inj.enabled()) {
                conn->chaos = inj.plan(conn->client);
                conn->chaosOn = conn->chaos.anyConnFault();
            }
            conn->reader =
                std::thread([this, conn] { readerLoop(conn); });
        }
        reapFinishedConns();
    }
}

void
ServeDaemon::sendReply(Conn *conn, const std::string &payload,
                       bool settlesJob)
{
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (settlesJob)
        conn->pendingJobs.fetch_sub(1);
    if (conn->cancel.cancelled())
        return;
    WriteOptions opts;
    opts.timeoutMs = static_cast<unsigned>(cfg_.writeTimeoutMs);
    opts.chaos = conn->chaosOn ? &conn->chaos : nullptr;
    opts.frameIndex = conn->framesWritten++;
    if (Status st = writeFrame(conn->fd, payload, opts); !st.ok()) {
        // The peer is unreachable (gone, wedged, or chaos cut the
        // wire): stop writing and stop the sims still computing
        // answers nobody can receive.
        if (st.errorClass() == ErrorClass::Timeout)
            reg().addCounter("serve.write.timeout");
        trb_debug("reply to ", conn->client, " failed: ",
                  st.toString());
        conn->cancel.cancel("peer " + conn->client +
                            " unreachable: " + st.message());
    }
}

void
ServeDaemon::readerLoop(Conn *conn)
{
    bool violated = false;
    for (;;) {
        std::string payload;
        bool closed = false;
        Status st = readFrame(conn->fd, payload, &closed);
        if (closed)
            break;
        if (!st.ok()) {
            // A framing violation cannot be resynchronised: report it
            // once (best effort) and hang up.  Shutdown races stay
            // quiet.
            if (!stopping_) {
                trb_debug(conn->client, ": ", st.toString());
                if (st.errorClass() == ErrorClass::CorruptRecord) {
                    sendReply(conn, errorReplyJson("", "", st));
                    violated = true;
                }
            }
            break;
        }

        ServeRequest req;
        st = parseRequest(payload, req);
        if (!st.ok()) {
            reg().addCounter("serve.rejected.malformed");
            // req.op/req.id hold whatever parsed before the failure;
            // a fully undecodable document echoes neither.
            const bool decoded = st.ruleViolated() != "serve.json" &&
                                 st.ruleViolated() != "serve.op";
            sendReply(conn,
                      errorReplyJson(decoded ? opName(req.op) : "",
                                     decoded ? req.id : "", st));
            continue;
        }

        switch (req.op) {
          case Op::Ping:
            sendReply(conn, pingReplyJson(req.id, uptimeSeconds()));
            break;
          case Op::Stats:
            reg().setGauge("serve.inflight_age_ms", oldestInflightMs());
            sendReply(conn, statsReplyJson(req.id, uptimeSeconds(), jobs_,
                                           cfg_.queueBound));
            break;
          case Op::Sim: {
            // The request moves into the queue before push() decides
            // its fate; keep the id for the rejection path.
            const std::string id = req.id;
            Job job;
            job.conn = conn;
            job.req = std::move(req);
            // The deadline clock starts at admission: queueing time
            // counts against the client's budget.
            if (job.req.deadlineMs > 0)
                job.deadline = resil::Deadline::after(job.req.deadlineMs);
            conn->pendingJobs.fetch_add(1);
            if (!queue_.push(conn->client, std::move(job))) {
                conn->pendingJobs.fetch_sub(1);
                reg().addCounter("serve.rejected.busy");
                sendReply(conn,
                          errorReplyJson(
                              "sim", id,
                              Status::busy(
                                  "queue full (" +
                                  std::to_string(cfg_.queueBound) +
                                  " requests); back off and resubmit")
                                  .rule("serve.queue-bound")));
                break;
            }
            reg().addCounter("serve.accepted");
            reg().setGauge("serve.queue_depth",
                           static_cast<double>(queue_.depth()));
            // Touch the mutex before notifying so the wake-up cannot
            // slip between a worker's predicate and its wait.
            {
                std::lock_guard<std::mutex> lock(queueMutex_);
            }
            queueCv_.notify_one();
            break;
          }
        }
    }
    // Hang up so a peer waiting for EOF sees it now rather than at the
    // next reap.  A violated stream is cut outright: its pending
    // replies are forfeit (the framing is broken anyway), so its sims
    // stop.  One that ended with sims pending keeps its write side, so
    // pipelined replies flush to a peer that only half-closed
    // (shutdown(SHUT_WR)) -- unless the peer closed outright, which
    // raises POLLHUP where a half-close does not.  Jobs settle under
    // writeMutex, so under it a pending job is one whose reply is
    // unwritten: a peer that read every reply and then closed is not
    // found dead.
    {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (violated) {
            conn->cancel.cancel("peer " + conn->client + " broke framing");
            ::shutdown(conn->fd, SHUT_RDWR);
        } else if (conn->pendingJobs.load() == 0) {
            ::shutdown(conn->fd, SHUT_RDWR);
        } else {
            // A token fired already was fired by a failed write, and
            // no write runs while writeMutex is held.
            struct pollfd p = {conn->fd, 0, 0};
            if (::poll(&p, 1, 0) > 0 && (p.revents & POLLHUP) &&
                !conn->cancel.cancelled()) {
                conn->cancel.cancel("peer " + conn->client +
                                    " disconnected");
                reg().addCounter("serve.reaped.dead");
                trb_debug(conn->client, ": peer vanished with ",
                          conn->pendingJobs.load(), " pending sims");
            }
            ::shutdown(conn->fd, SHUT_RD);
        }
    }
    conn->done = true;
    // Last, so a counted hang-up has finished touching the registry.
    reg().addCounter("serve.disconnects");
}

void
ServeDaemon::workerLoop(Stamp &simStart)
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_.load() || queue_.depth() > 0;
            });
            // stop() answers whatever is still queued.
            if (stopping_)
                return;
            // Only workers pop before stopping_, all under this lock, so
            // the depth just seen is still there.
            queue_.pop(job);
            reg().setGauge("serve.queue_depth",
                           static_cast<double>(queue_.depth()));
        }

        if (job.conn->cancel.cancelled()) {
            // A peer already declared dead cannot receive any reply:
            // drop the work instead of computing an answer for nobody.
            reg().addCounter("serve.dropped.dead");
            job.conn->pendingJobs.fetch_sub(1);
        } else if (job.deadline.expired()) {
            // A deadline that expired while queued is answered without
            // simulating.
            reg().addCounter("serve.timeout.queued");
            sendReply(job.conn,
                      errorReplyJson(
                          "sim", job.req.id,
                          Status::timeout(
                              "deadline of " +
                              std::to_string(job.req.deadlineMs) +
                              " ms expired while queued")
                              .rule("serve.deadline")),
                      /*settlesJob=*/true);
        } else {
            runSim(job, simStart);
        }
    }
}

void
ServeDaemon::runSim(const Job &job, Stamp &simStart)
{
    // Only sims that run take a seq, so the seqs have no gaps.
    const std::uint64_t seq = seq_.fetch_add(1) + 1;
    // The core polls this token: it fires at the admission deadline or
    // with the connection's token, whichever comes first.
    const resil::CancelToken token(job.deadline, &job.conn->cancel);
    simStart.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
    noteInflight(1);

    // Every admitted sim gets exactly one reply, whatever it throws.
    std::string reply;
    try {
        Expected<CvpTrace> trace = resolveTrace(job.req);
        if (!trace.ok()) {
            reply = errorReplyJson("sim", job.req.id, trace.status());
        } else {
            token.throwIfCancelled();
            SimResult result =
                simulate(trace.value(),
                         SimRequest{
                             .imps = job.req.imps,
                             .params = job.req.ipc1 ? ipc1Config()
                                                    : modernConfig(),
                             .warmupFraction = job.req.warmupFraction,
                             .useStore = job.req.useStore,
                             .cancel = &token,
                         });
            reply = simReplyJson(job.req.id, result, seq);
            served_.fetch_add(1);
            reg().addCounter("serve.served");
        }
    } catch (const resil::CancelledError &e) {
        reg().addCounter("serve.timeout.cancelled");
        reply = errorReplyJson("sim", job.req.id,
                               Status::timeout(e.what())
                                   .rule("serve.timeout"));
    } catch (const std::exception &e) {
        trb_warn("sim seq ", seq, " threw: ", e.what());
        reply = errorReplyJson("sim", job.req.id,
                               Status::internal(e.what()));
    } catch (...) {
        trb_warn("sim seq ", seq, " threw a non-std exception");
        reply = errorReplyJson("sim", job.req.id,
                               Status::internal("non-std exception"));
    }
    sendReply(job.conn, reply, /*settlesJob=*/true);
    simStart.store(0, std::memory_order_relaxed);
    noteInflight(-1);
}

void
ServeDaemon::noteInflight(int delta)
{
    int count = inflight_.fetch_add(delta) + delta;
    // Two workers can publish their counts in either order.  Each
    // rewrites the gauge until the count it wrote is still current, so
    // the last write always holds the true count.
    for (;;) {
        reg().setGauge("serve.inflight", static_cast<double>(count));
        const int now = inflight_.load();
        if (now == count)
            return;
        count = now;
    }
}

double
ServeDaemon::oldestInflightMs() const
{
    using Clock = std::chrono::steady_clock;
    const Clock::rep now = Clock::now().time_since_epoch().count();
    Clock::rep oldest = 0;
    for (const Stamp &simStart : simStarts_) {
        const Clock::rep started = simStart.load(std::memory_order_relaxed);
        if (started != 0)
            oldest = std::max(oldest, now - started);
    }
    return std::chrono::duration<double, std::milli>(Clock::duration(oldest))
        .count();
}

} // namespace serve
} // namespace trb
