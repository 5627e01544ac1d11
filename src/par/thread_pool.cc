#include "par/thread_pool.hh"

#include "common/env.hh"

namespace trb
{
namespace par
{

namespace
{

/** Pool-thread index; 0 for the caller and for threads outside pools. */
thread_local std::size_t tl_worker_id = 0;

} // namespace

std::size_t
jobsFromEnv()
{
    std::uint64_t jobs = env::u64("TRB_JOBS", 0);
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return jobs == 0 ? 1 : static_cast<std::size_t>(jobs);
}

std::size_t
workerId()
{
    return tl_worker_id;
}

/**
 * Book-keeping shared by the tasks of one parallelFor() call.  All
 * completion state is guarded by one mutex so the driving thread cannot
 * destroy the loop while a finishing task still touches it: the final
 * increment of @c completed and the wake-up happen in one critical
 * section, and the driver only returns after observing
 * completed == total under that same mutex.
 */
struct ThreadPool::ForLoop
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t total = 0;
    std::size_t completed = 0;   //!< guarded by mutex
    std::exception_ptr error;    //!< first failure, guarded by mutex
    std::mutex mutex;
    std::condition_variable done;
};

ThreadPool::ThreadPool(std::size_t jobs) : jobs_(jobs == 0 ? 1 : jobs)
{
    queues_.reserve(jobs_);
    for (std::size_t i = 0; i < jobs_; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(jobs_ - 1);
    for (std::size_t id = 1; id < jobs_; ++id)
        threads_.emplace_back([this, id] { workerLoop(id); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        stop_ = true;
    }
    sleepCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::runTask(ForLoop *loop, std::size_t index)
{
    std::exception_ptr err;
    try {
        (*loop->fn)(index);
    } catch (...) {
        err = std::current_exception();
    }
    // parallelFor()'s caller may destroy the ForLoop the moment it
    // observes completed == total, so the notify happens inside the
    // critical section and nothing touches *loop after it.
    std::lock_guard<std::mutex> lock(loop->mutex);
    if (err && !loop->error)
        loop->error = err;
    if (++loop->completed == loop->total)
        loop->done.notify_all();
}

bool
ThreadPool::tryRunOne(std::size_t id)
{
    std::pair<ForLoop *, std::size_t> task{nullptr, 0};
    {
        // Own deque first, newest task (LIFO keeps nested loops local).
        WorkerQueue &own = *queues_[id];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = own.tasks.back();
            own.tasks.pop_back();
        }
    }
    if (!task.first) {
        // Steal the oldest task of another worker (FIFO).
        for (std::size_t k = 1; k < jobs_ && !task.first; ++k) {
            WorkerQueue &victim = *queues_[(id + k) % jobs_];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = victim.tasks.front();
                victim.tasks.pop_front();
            }
        }
        if (task.first)
            queues_[id]->steals.fetch_add(1, std::memory_order_relaxed);
    }
    if (!task.first)
        return false;
    pending_.fetch_sub(1, std::memory_order_relaxed);
    runTask(task.first, task.second);
    return true;
}

void
ThreadPool::workerLoop(std::size_t id)
{
    tl_worker_id = id;
    for (;;) {
        if (tryRunOne(id))
            continue;
        std::unique_lock<std::mutex> lock(sleepMutex_);
        sleepCv_.wait(lock, [this] {
            return stop_ ||
                   pending_.load(std::memory_order_relaxed) > 0;
        });
        if (stop_)
            return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs_ == 1) {
        // The exact serial path: inline, in index order, no locking.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    ForLoop loop;
    loop.fn = &fn;
    loop.total = n;

    // Scatter the indices round-robin so every worker starts loaded.
    const std::size_t id = tl_worker_id;
    for (std::size_t q = 0; q < jobs_; ++q) {
        WorkerQueue &queue = *queues_[(id + q) % jobs_];
        std::lock_guard<std::mutex> lock(queue.mutex);
        for (std::size_t i = q; i < n; i += jobs_)
            queue.tasks.emplace_back(&loop, i);
    }
    pending_.fetch_add(n, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
    }
    sleepCv_.notify_all();

    // The driver works too: run (or steal) tasks while any remain; once
    // every task is taken, block until the last executor signals.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(loop.mutex);
            if (loop.completed == loop.total)
                break;
        }
        if (tryRunOne(id))
            continue;
        std::unique_lock<std::mutex> lock(loop.mutex);
        if (loop.completed == loop.total)
            break;
        loop.done.wait(lock);
    }
    if (loop.error)
        std::rethrow_exception(loop.error);
}

std::uint64_t
ThreadPool::stealCount() const
{
    std::uint64_t total = 0;
    for (const auto &queue : queues_)
        total += queue->steals.load(std::memory_order_relaxed);
    return total;
}

std::vector<std::size_t>
ThreadPool::queueDepths() const
{
    std::vector<std::size_t> depths;
    depths.reserve(queues_.size());
    for (const auto &queue : queues_) {
        std::lock_guard<std::mutex> lock(queue->mutex);
        depths.push_back(queue->tasks.size());
    }
    return depths;
}

namespace
{

/** Set once the global pool has been constructed. */
std::atomic<ThreadPool *> g_global_pool{nullptr};

} // namespace

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(jobsFromEnv());
    g_global_pool.store(&pool, std::memory_order_release);
    return pool;
}

ThreadPool *
ThreadPool::globalIfStarted()
{
    return g_global_pool.load(std::memory_order_acquire);
}

} // namespace par
} // namespace trb
