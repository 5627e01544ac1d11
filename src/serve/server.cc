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
    cfg.quantum = static_cast<std::size_t>(
        env::u64("TRB_SERVE_QUANTUM", cfg.quantum));
    cfg.watchdogMs = env::u64("TRB_SERVE_WATCHDOG_MS", cfg.watchdogMs);
    cfg.writeTimeoutMs = env::u64("TRB_SERVE_WRITE_MS",
                                  cfg.writeTimeoutMs);
    if (cfg.queueBound == 0)
        trb_fatal("TRB_SERVE_QUEUE must be at least 1");
    if (cfg.quantum == 0)
        trb_fatal("TRB_SERVE_QUANTUM must be at least 1");
    return cfg;
}

ServeDaemon::ServeDaemon(ServeConfig cfg, par::ThreadPool *pool)
    : cfg_(std::move(cfg)),
      pool_(pool ? pool : &par::ThreadPool::global()),
      queue_(cfg_.queueBound, cfg_.quantum)
{
    maxInflight_ =
        cfg_.maxInflight ? cfg_.maxInflight : pool_->jobs();
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
    acceptThread_ = std::thread([this] { acceptLoop(); });
    dispatchThread_ = std::thread([this] { dispatchLoop(); });
    if (cfg_.watchdogMs > 0)
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    trb_inform("trace_served listening on ", cfg_.socketPath,
               " (jobs ", pool_->jobs(), ", queue ", cfg_.queueBound,
               ", quantum ", cfg_.quantum, ", watchdog ",
               cfg_.watchdogMs, " ms)");
    return Status{};
}

void
ServeDaemon::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        stopping_ = true;
    }
    {
        std::lock_guard<std::mutex> lock(watchdogMutex_);
    }
    dispatchCv_.notify_all();
    watchdogCv_.notify_all();

    // Unblock accept(); on Linux a shutdown listening socket returns
    // EINVAL from accept, which the loop treats as "time to go".
    ::shutdown(listenFd_, SHUT_RDWR);
    acceptThread_.join();

    // The dispatcher answers everything still queued with a typed busy
    // reply, then exits once nothing is inflight.  The watchdog stays
    // alive until after that wait: it is what cancels deadline-bound
    // work that would otherwise hold shutdown hostage.
    dispatchThread_.join();
    if (watchdogThread_.joinable())
        watchdogThread_.join();

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

    // Late pushes that raced the dispatcher's drain go unanswered (the
    // peer is gone); discard them so nothing dangles.
    Job job;
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
ServeDaemon::sendReply(Conn *conn, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (conn->dead.load(std::memory_order_relaxed))
        return;
    WriteOptions opts;
    opts.timeoutMs = static_cast<unsigned>(cfg_.writeTimeoutMs);
    opts.chaos = conn->chaosOn ? &conn->chaos : nullptr;
    opts.frameIndex = conn->framesWritten++;
    if (Status st = writeFrame(conn->fd, payload, opts); !st.ok()) {
        // The peer is unreachable (gone, wedged, or chaos cut the
        // wire): stop writing and release any workers still computing
        // answers nobody can receive.
        conn->dead.store(true);
        if (st.errorClass() == ErrorClass::Timeout)
            reg().addCounter("serve.write.timeout");
        trb_debug("reply to ", conn->client, " failed: ",
                  st.toString());
        cancelConnInflight(conn, "peer " + conn->client +
                                     " unreachable: " + st.message());
    }
}

void
ServeDaemon::cancelConnInflight(Conn *conn, const std::string &why)
{
    std::vector<std::shared_ptr<resil::CancelToken>> fire;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        for (auto &entry : inflightMap_)
            if (entry.second.conn == conn)
                fire.push_back(entry.second.token);
    }
    for (auto &token : fire)
        token->cancel(why);
}

void
ServeDaemon::readerLoop(Conn *conn)
{
    bool violated = false;
    for (;;) {
        std::string payload;
        Status st = readFrame(conn->fd, payload);
        if (!st.ok()) {
            // A framing violation cannot be resynchronised: report it
            // once (best effort) and hang up.  Clean closes and
            // shutdown races stay quiet.
            if (!isCleanClose(st) && !stopping_) {
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
            sendReply(conn, statsReplyJson(req.id, uptimeSeconds(),
                                           pool_->jobs(),
                                           cfg_.queueBound,
                                           cfg_.quantum));
            break;
          case Op::Sim: {
            // The request moves into the queue before push() decides
            // its fate; keep the id for the rejection path.
            const std::string id = req.id;
            Job job;
            job.conn = conn;
            job.req = std::move(req);
            job.token = std::make_shared<resil::CancelToken>();
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
            // slip between the dispatcher's predicate and its wait.
            {
                std::lock_guard<std::mutex> lock(dispatchMutex_);
            }
            dispatchCv_.notify_all();
            break;
          }
        }
    }
    // Hang up so a peer waiting for EOF sees it now rather than at the
    // next reap.  A violated stream is cut outright (any inflight
    // replies are forfeit -- the framing is broken anyway); a cleanly
    // closed one keeps its write side while sims are still pending, so
    // pipelined replies flush to a half-closed peer.
    if (violated || conn->pendingJobs.load() == 0)
        ::shutdown(conn->fd, SHUT_RDWR);
    else
        ::shutdown(conn->fd, SHUT_RD);
    conn->done = true;
}

void
ServeDaemon::dispatchLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(dispatchMutex_);
            dispatchCv_.wait(lock, [this] {
                return stopping_.load() ||
                       (queue_.depth() > 0 &&
                        inflight_.load() < maxInflight_);
            });
            if (stopping_)
                break;
        }
        Job popped;
        if (!queue_.pop(popped))
            continue;
        reg().setGauge("serve.queue_depth",
                       static_cast<double>(queue_.depth()));
        auto job = std::make_shared<Job>(std::move(popped));

        // A peer already declared dead cannot receive any reply: drop
        // the work instead of computing an answer for nobody.
        if (job->conn->dead.load(std::memory_order_relaxed)) {
            reg().addCounter("serve.dropped.dead");
            job->conn->pendingJobs.fetch_sub(1);
            continue;
        }
        // A deadline that expired while queued is answered without
        // burning a worker.
        if (job->deadline.expired()) {
            reg().addCounter("serve.timeout.queued");
            sendReply(job->conn,
                      errorReplyJson(
                          "sim", job->req.id,
                          Status::timeout(
                              "deadline of " +
                              std::to_string(job->req.deadlineMs) +
                              " ms expired while queued")
                              .rule("serve.deadline")));
            job->conn->pendingJobs.fetch_sub(1);
            continue;
        }

        inflight_.fetch_add(1);
        reg().setGauge("serve.inflight",
                       static_cast<double>(inflight_.load()));
        const std::uint64_t seq = seq_.fetch_add(1) + 1;
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflightMap_.emplace(
                seq, Inflight{job->conn, job->req.id,
                              std::chrono::steady_clock::now(),
                              job->deadline, job->token, false});
        }
        // The cancel flag is re-tested when a pool worker picks the
        // task up: work cancelled while pool-queued never starts.
        pool_->submit([this, job, seq] { runSim(job, seq); },
                      &job->token->flag(),
                      [this, job, seq] {
                          cancelledBeforeStart(job, seq);
                      });
    }

    // Drain: everything still queued gets a typed shutdown-busy reply.
    Job job;
    while (queue_.pop(job)) {
        sendReply(job.conn,
                  errorReplyJson("sim", job.req.id,
                                 Status::busy("server shutting down")
                                     .rule("serve.shutdown")));
        job.conn->pendingJobs.fetch_sub(1);
    }
    reg().setGauge("serve.queue_depth", 0.0);

    // Wait for inflight simulations to flush their replies.
    std::unique_lock<std::mutex> lock(dispatchMutex_);
    dispatchCv_.wait(lock, [this] { return inflight_.load() == 0; });
}

void
ServeDaemon::runSim(std::shared_ptr<Job> job, std::uint64_t seq)
{
    std::string reply;
    Expected<CvpTrace> trace = resolveTrace(job->req);
    if (!trace.ok()) {
        reply = errorReplyJson("sim", job->req.id, trace.status());
    } else {
        try {
            job->token->throwIfCancelled();
            SimResult result =
                simulate(trace.value(),
                         SimRequest{
                             .imps = job->req.imps,
                             .params = job->req.ipc1 ? ipc1Config()
                                                     : modernConfig(),
                             .warmupFraction = job->req.warmupFraction,
                             .useStore = job->req.useStore,
                             .cancel = job->token.get(),
                         });
            reply = simReplyJson(job->req.id, result, seq);
            served_.fetch_add(1);
            reg().addCounter("serve.served");
        } catch (const resil::CancelledError &e) {
            reg().addCounter("serve.timeout.cancelled");
            reply = errorReplyJson("sim", job->req.id,
                                   Status::timeout(e.what())
                                       .rule("serve.timeout"));
        } catch (const std::exception &e) {
            reply = errorReplyJson("sim", job->req.id,
                                   Status::internal(e.what()));
        }
    }
    finishJob(job, seq, reply);
}

void
ServeDaemon::cancelledBeforeStart(const std::shared_ptr<Job> &job,
                                  std::uint64_t seq)
{
    reg().addCounter("serve.timeout.cancelled");
    finishJob(job, seq,
              errorReplyJson("sim", job->req.id,
                             Status::timeout(job->token->reason())
                                 .rule("serve.timeout")));
}

void
ServeDaemon::finishJob(const std::shared_ptr<Job> &job,
                       std::uint64_t seq, const std::string &reply)
{
    sendReply(job->conn, reply);
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflightMap_.erase(seq);
    }
    // Registry erase precedes the pendingJobs decrement: a connection
    // is only reaped at pendingJobs == 0, so while a registry entry
    // exists its Conn pointer is alive.
    job->conn->pendingJobs.fetch_sub(1);
    reg().setGauge("serve.inflight",
                   static_cast<double>(inflight_.load() - 1));
    // Decrement and notify under the lock: stop() may destroy the
    // daemon as soon as the dispatcher observes inflight == 0, and the
    // dispatcher can only observe it after this critical section ends.
    {
        std::lock_guard<std::mutex> lock(dispatchMutex_);
        inflight_.fetch_sub(1);
        dispatchCv_.notify_all();
    }
}

void
ServeDaemon::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(watchdogMutex_);
    while (!watchdogCv_.wait_for(
        lock, std::chrono::milliseconds(cfg_.watchdogMs),
        [this] { return stopping_.load(); })) {
        lock.unlock();
        tickWatchdog();
        lock.lock();
    }
}

void
ServeDaemon::tickWatchdog()
{
    // (1) Reap peers that vanished behind a half-closed stream: the
    // reader already exited but sims are still pending.  On a Unix
    // socket POLLHUP means the peer is *fully* gone -- a deliberate
    // half-close (shutdown(SHUT_WR)) keeps its read side open and does
    // not raise it -- so pipelined replies to live half-closed peers
    // keep flowing.
    {
        std::lock_guard<std::mutex> lock(connsMutex_);
        for (auto &conn : conns_) {
            if (conn->dead.load() || !conn->done.load() ||
                conn->pendingJobs.load() == 0)
                continue;
            struct pollfd p = {conn->fd, 0, 0};
            if (::poll(&p, 1, 0) > 0 && (p.revents & POLLHUP)) {
                conn->dead.store(true);
                reg().addCounter("serve.reaped.dead");
                trb_debug(conn->client, ": peer vanished with ",
                          conn->pendingJobs.load(), " pending sims");
            }
        }
    }

    // (2) Walk the dispatched work: gauge the oldest request, collect
    // tokens to fire (expired deadline, or the peer is dead), flag
    // stuck requests once.
    struct Firing
    {
        std::shared_ptr<resil::CancelToken> token;
        std::string reason;
    };
    std::vector<Firing> fire;
    double maxAgeMs = 0.0;
    const auto now = std::chrono::steady_clock::now();
    const double stuckMs = static_cast<double>(cfg_.watchdogMs) * 100.0;
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        for (auto &entry : inflightMap_) {
            Inflight &inf = entry.second;
            const double age =
                std::chrono::duration<double, std::milli>(now -
                                                          inf.started)
                    .count();
            maxAgeMs = std::max(maxAgeMs, age);
            if (!inf.stuckLogged && age >= stuckMs) {
                inf.stuckLogged = true;
                reg().addCounter("serve.stuck");
                trb_warn("sim seq ", entry.first, " (",
                         inf.conn->client, ", id \"", inf.id,
                         "\") inflight for ",
                         static_cast<std::uint64_t>(age), " ms");
            }
            if (inf.token->cancelled())
                continue;
            if (inf.conn->dead.load())
                fire.push_back({inf.token, "peer " + inf.conn->client +
                                               " disconnected"});
            else if (inf.deadline.expired())
                fire.push_back(
                    {inf.token,
                     "deadline expired after " +
                         std::to_string(
                             static_cast<std::uint64_t>(age)) +
                         " ms in flight"});
        }
    }
    reg().setGauge("serve.inflight_age_ms", maxAgeMs);
    // Fire outside the registry lock: the cancelled worker's reply
    // path takes inflightMutex_ itself.
    for (Firing &f : fire)
        f.token->cancel(f.reason);

    // (3) Retire fully-drained connections.
    reapFinishedConns();
}

} // namespace serve
} // namespace trb
