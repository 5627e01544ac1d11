/**
 * @file
 * trb::par -- a fixed-size work-stealing thread pool for the experiment
 * harness.
 *
 * Each worker owns a deque of pending tasks: it pushes and pops work at
 * the back (LIFO, cache-friendly for nested loops) and steals from the
 * front of other workers' deques (FIFO, so thieves take the oldest --
 * largest -- chunks).  The thread that calls parallelFor() participates
 * as worker 0, so a pool of N jobs runs exactly N executing threads and
 * `TRB_JOBS=1` spawns no threads at all: the loop body runs inline, in
 * index order, on the caller -- today's exact serial path.
 *
 * Determinism contract: parallelFor() promises only that every index in
 * [0, n) is executed exactly once, on some thread, before it returns.
 * Callers that need schedule-independent results must write results into
 * index-addressed slots (see docs/parallelism.md); the experiment
 * harness does exactly that, which is why its output is bit-identical
 * for any TRB_JOBS value.
 *
 * Exceptions thrown by loop bodies are captured; the first one (in
 * completion order) is rethrown from parallelFor() on the calling thread
 * after every index has run or been abandoned by its thrower.
 */

#ifndef TRB_PAR_THREAD_POOL_HH
#define TRB_PAR_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace trb
{
namespace par
{

/**
 * Worker count from TRB_JOBS; 0 or unset means hardware_concurrency.
 * Always >= 1.
 */
std::size_t jobsFromEnv();

/**
 * Index of the pool thread executing the current code: 0 for the
 * thread driving parallelFor() (the caller), 1..jobs-1 for spawned
 * workers, and 0 for any thread outside a pool context.
 */
std::size_t workerId();

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /** @param jobs executing threads including the caller (>= 1). */
    explicit ThreadPool(std::size_t jobs = jobsFromEnv());

    /** Drains nothing: pending loops must have completed.  Joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Executing threads, including the calling thread. */
    std::size_t jobs() const { return jobs_; }

    /**
     * Run fn(i) for every i in [0, n), distributed over the pool; the
     * calling thread executes tasks too.  Returns once every index has
     * run.  Nested calls from inside a loop body are allowed (the inner
     * loop's tasks join the same deques).  First exception is rethrown.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Enqueue one detached task: @p fn runs once, on some pool worker,
     * as soon as a worker is free.  Returns immediately -- completion is
     * the task's own business (signal through whatever state it closes
     * over).  With jobs() == 1 the task runs inline on the caller before
     * submit() returns, preserving the TRB_JOBS=1 exact-serial contract.
     *
     * With jobs() == N > 1 the task is seeded onto queues 1..N-1 in
     * turn.  Queue 0 belongs to the thread driving parallelFor(), and a
     * submitter that never drives one (the serving daemon) leaves it
     * idle, so detached tasks execute on N - 1 threads: a daemon at
     * TRB_JOBS=2 executes on one pool thread.
     *
     * Unlike parallelFor(), nobody waits to rethrow: an escaping
     * exception is logged as a warning and swallowed, so submitters that
     * care must catch inside @p fn.  This is the serving layer's entry
     * point (trb::serve dispatches one accepted request per submit());
     * batch sweeps should keep using parallelFor()/parallelMap().
     */
    void submit(std::function<void()> fn);

    /**
     * Cancellation-aware submit(): when the task is popped for
     * execution, @p cancel is tested first (one relaxed load) -- if it
     * has been set, @p onCancel runs instead of @p fn, so
     * queued-but-unstarted work cancels without burning a worker on it.
     * Work already *running* is not interrupted; long tasks poll their
     * own token cooperatively (see resil/cancel.hh -- the pool takes a
     * raw `const std::atomic<bool> *` so trb_par stays independent of
     * trb_resil; pass `&token.flag()`).  A null @p cancel degrades to
     * the plain submit().  The TRB_JOBS=1 inline path honours the flag
     * too.  @p cancel must outlive the task; closing the flag's owner
     * into @p fn/@p onCancel (e.g. a shared_ptr) is the usual way.
     */
    void submit(std::function<void()> fn,
                const std::atomic<bool> *cancel,
                std::function<void()> onCancel = {});

    /**
     * Map @p items through @p fn in parallel, returning results in
     * input order (index-addressed, so the result is independent of the
     * schedule).
     */
    template <typename T, typename F>
    auto
    parallelMap(const std::vector<T> &items, F fn)
        -> std::vector<decltype(fn(items[0]))>
    {
        std::vector<decltype(fn(items[0]))> out(items.size());
        parallelFor(items.size(),
                    [&](std::size_t i) { out[i] = fn(items[i]); });
        return out;
    }

    /**
     * The process-wide pool, sized by TRB_JOBS at first use.  Bench
     * binaries and the experiment harness share this instance so the
     * machine is never oversubscribed by nested harness calls.
     */
    static ThreadPool &global();

    /**
     * The process-wide pool if it has already been constructed, else
     * nullptr.  Observability code samples through this accessor so
     * that *watching* the pool never *creates* it (a sampler tick
     * before the first parallelFor must not spawn worker threads).
     */
    static ThreadPool *globalIfStarted();

    /**
     * Tasks each worker ran that were taken from another worker's
     * deque, summed over the pool's lifetime.  Relaxed reads: exact
     * once the pool is quiescent, approximate while loops are live --
     * which is fine for the telemetry heartbeat that consumes it.
     */
    std::uint64_t stealCount() const;

    /**
     * Current depth of every worker deque (index = worker id).  Takes
     * each queue lock briefly; depths of different queues are not a
     * consistent cut, which telemetry tolerates.
     */
    std::vector<std::size_t> queueDepths() const;

  private:
    struct ForLoop;

    /** One worker's work-stealing deque. */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::pair<ForLoop *, std::size_t>> tasks;
        /** Tasks this worker ran that it stole from another deque. */
        std::atomic<std::uint64_t> steals{0};
    };

    void workerLoop(std::size_t id);
    bool tryRunOne(std::size_t id);
    static void runTask(ForLoop *loop, std::size_t index);

    std::size_t jobs_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> threads_;
    std::atomic<std::size_t> submitCursor_{0};   //!< spreads submit()s

    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;
    std::atomic<std::size_t> pending_{0};   //!< queued, not yet popped
    bool stop_ = false;
};

} // namespace par
} // namespace trb

#endif // TRB_PAR_THREAD_POOL_HH
