/**
 * @file
 * ServeDaemon: the long-lived multi-tenant simulation server behind
 * tools/trace_served.
 *
 * One daemon = one Unix-domain listening socket + three kinds of
 * threads:
 *
 *  - an accept thread admitting connections ("clients");
 *  - one reader thread per connection, decoding frames.  ping/stats are
 *    answered inline; sim requests are pushed onto a bounded FairQueue
 *    keyed by the connection, and a full queue turns into an immediate
 *    typed `busy` reply (backpressure, never an unbounded backlog);
 *  - a fixed set of max(1, jobs - 1) worker threads, each popping the
 *    queue round-robin (so tenants share the machine fairly) and running
 *    the sim it popped.  A request costs at most one thread wake-up,
 *    reader to worker, and none when a busy worker finds it queued.
 *
 * Simulation itself is the ordinary simulate() call: warm requests are
 * answered from trb::store transparently, and every reply is
 * bit-identical to a direct simulate() of the same request -- the
 * daemon adds scheduling, never semantics.  Progress is visible as
 * serve.* counters/gauges in the global metrics registry (and over the
 * wire via the stats op).  docs/serving.md is the operator manual.
 *
 * Hostile time.  One more thread -- the watchdog -- makes the daemon
 * survive clients that are slow, dead or deadline-bound:
 *
 *  - a request carrying deadline_ms is answered with a typed `timeout`
 *    once the deadline passes: still-queued work is rejected when a
 *    worker pops it, without simulating; running work is cancelled
 *    cooperatively through resil::CancelToken (the core model polls
 *    every O3Core::kCancelPollInterval retired records);
 *  - replies are written with a poll-bounded readiness timeout
 *    (TRB_SERVE_WRITE_MS), so one peer that stops draining its socket
 *    cannot wedge a worker; the connection is declared dead and its
 *    running work cancelled;
 *  - the watchdog (every TRB_SERVE_WATCHDOG_MS) fires expired
 *    deadlines, reaps peers that vanished behind a half-closed stream
 *    (POLLHUP), exports the oldest in-flight age as the
 *    serve.inflight_age_ms gauge, and logs/counts stuck requests.
 *
 * Under a configured resil::FaultInjector, connection-scoped fault
 * kinds (conn-reset / conn-stall / partial-write, keyed by the
 * "conn-<n>" lane name) are applied to outgoing frames -- the chaos
 * harness the soak tests drive.
 */

#ifndef TRB_SERVE_SERVER_HH
#define TRB_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "par/thread_pool.hh"
#include "resil/cancel.hh"
#include "resil/fault.hh"
#include "resil/status.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"

namespace trb
{
namespace serve
{

/** Daemon knobs; fromEnv() reads the TRB_SERVE_* variables. */
struct ServeConfig
{
    /** Listening socket path (beware sun_path's ~100-byte limit). */
    std::string socketPath = "trb_serve.sock";

    /** Queued sim requests (not yet on a worker) beyond which push -> busy. */
    std::size_t queueBound = 64;

    /** Watchdog period in ms; 0 disables the watchdog thread. */
    std::uint64_t watchdogMs = 50;

    /** Per-write peer-readiness bound in ms; 0 blocks indefinitely. */
    std::uint64_t writeTimeoutMs = 5000;

    /**
     * Typed configuration check (today: the socket path must fit
     * sun_path).  start() refuses an invalid config with this Status.
     */
    Status validate() const;

    /**
     * TRB_SERVE_SOCKET / TRB_SERVE_QUEUE / TRB_SERVE_WATCHDOG_MS /
     * TRB_SERVE_WRITE_MS.
     */
    static ServeConfig fromEnv();
};

/** The serving daemon.  start() to listen, stop() to drain and exit. */
class ServeDaemon
{
  public:
    /**
     * @param cfg  serving knobs
     * @param pool its jobs() sizes the daemon: max(1, jobs - 1) workers,
     *             and the stats reply's `jobs`.  The daemon runs nothing
     *             on the pool.  nullptr means par::jobsFromEnv() (tests
     *             pass fixed-width pools to pin TRB_JOBS).
     */
    explicit ServeDaemon(ServeConfig cfg = ServeConfig::fromEnv(),
                         par::ThreadPool *pool = nullptr);

    /** stop()s if still running. */
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Bind the socket and start serving.  IoError (with errno text) if
     * the path cannot be bound; a stale socket file is replaced.
     */
    Status start();

    /**
     * Graceful shutdown: stop accepting, answer every queued request
     * with a typed `busy` ("server shutting down"), wait for inflight
     * simulations to finish and their replies to flush, close every
     * connection, unlink the socket.  Idempotent.
     */
    void stop();

    bool running() const { return running_; }

    const ServeConfig &config() const { return cfg_; }

    /** Sim replies sent over the daemon's lifetime. */
    std::uint64_t served() const { return served_.load(); }

    /** Seconds since start(). */
    double uptimeSeconds() const;

  private:
    /** One accepted connection (= one fairness lane). */
    struct Conn
    {
        int fd = -1;
        std::string client;                //!< lane key, "conn-<n>"
        std::mutex writeMutex;             //!< reader + worker replies
        std::atomic<int> pendingJobs{0};   //!< queued or running sims
        std::atomic<bool> done{false};     //!< reader thread exited
        std::atomic<bool> dead{false};     //!< peer unreachable: no
                                           //!< more writes, cancel work
        std::uint64_t framesWritten = 0;   //!< guarded by writeMutex
        resil::FaultPlan chaos;            //!< resolved once at accept
        bool chaosOn = false;              //!< chaos has a conn fault
        std::thread reader;
    };

    /** One admitted sim request waiting for a worker. */
    struct Job
    {
        Conn *conn = nullptr;
        ServeRequest req;
        resil::Deadline deadline;   //!< armed at admission
    };

    /** Watchdog's view of one running sim, keyed by seq. */
    struct Inflight
    {
        Conn *conn = nullptr;
        std::string id;
        std::chrono::steady_clock::time_point started;
        resil::Deadline deadline;
        std::shared_ptr<resil::CancelToken> token;
        bool stuckLogged = false;
    };

    void acceptLoop();
    void readerLoop(Conn *conn);
    void workerLoop();
    void watchdogLoop();
    void tickWatchdog();
    void runSim(const Job &job);
    void sendReply(Conn *conn, const std::string &payload);
    void cancelConnInflight(Conn *conn, const std::string &why);
    void reapFinishedConns();

    ServeConfig cfg_;
    std::size_t jobs_;   //!< TRB_JOBS-style width: stats reply, workers

    int listenFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::chrono::steady_clock::time_point startTime_;

    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    std::thread watchdogThread_;

    std::mutex connsMutex_;
    std::list<std::unique_ptr<Conn>> conns_;
    std::uint64_t connCounter_ = 0;   //!< guarded by connsMutex_

    // Workers sleep on queueCv_ and pop under queueMutex_; readers push
    // first and then touch queueMutex_ before notifying.
    FairQueue<Job> queue_;
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint64_t> served_{0};

    // Lock order where both are held: conn->writeMutex, then
    // inflightMutex_ (sendReply's failure path cancels the
    // connection's in-flight work).  Nothing takes writeMutex while
    // holding inflightMutex_; the watchdog fires tokens outside it.
    std::mutex inflightMutex_;
    std::map<std::uint64_t, Inflight> inflightMap_;

    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
};

} // namespace serve
} // namespace trb

#endif // TRB_SERVE_SERVER_HH
