/**
 * @file
 * Cooperative cancellation and deadlines for long-running simulations.
 *
 * A Deadline is an absolute point on the *monotonic* clock
 * (std::chrono::steady_clock): wall-clock jumps -- NTP steps, suspend
 * and resume -- can neither expire a request early nor grant it extra
 * time.  A default-constructed Deadline is unset and never expires.
 *
 * A CancelToken fires in any of three ways: its own one-way latch
 * (cancel(), from any thread), its parent token firing, or its Deadline
 * expiring.  Pollers (the O3Core hot loop, a serve worker before it
 * simulates) test it with cancelled() -- cheap enough to check every
 * few thousand retired instructions -- and bail out by throwing
 * CancelledError, which the owning layer translates into a typed
 * `timeout` Status.  Nothing watches a token: a deadline or a parent is
 * only looked at when something polls, so cancellation costs no thread
 * and is enforced at the poller's next poll.
 */

#ifndef TRB_RESIL_CANCEL_HH
#define TRB_RESIL_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace trb
{
namespace resil
{

/** Thrown by cancellation-aware loops when their token has fired. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * An absolute expiry instant on the monotonic clock.  Value type:
 * copy freely.  Unset (default) deadlines never expire.
 */
class Deadline
{
  public:
    /** Unset: never expires. */
    Deadline() = default;

    /** The instant @p ms milliseconds from now. */
    static Deadline after(std::uint64_t ms);

    bool valid() const { return set_; }

    /** True once the instant has passed (never true when unset). */
    bool expired() const;

  private:
    bool set_ = false;
    std::chrono::steady_clock::time_point at_{};
};

/**
 * Cancellation token: a latch plus an optional deadline and parent.
 * cancel() may be called from any thread, any number of times (the
 * first reason wins).  Not copyable: share via pointer -- the serve
 * daemon gives each connection a token and each running sim a token of
 * its own whose parent is its connection's, so firing the connection
 * stops every sim of that peer.
 */
class CancelToken
{
  public:
    /**
     * @param deadline the token reads cancelled once it expires (unset:
     *                 never)
     * @param parent   the token reads cancelled once @p parent does
     *                 (nullptr: none); must outlive this token
     */
    explicit CancelToken(Deadline deadline = {},
                         const CancelToken *parent = nullptr)
        : deadline_(deadline), parent_(parent)
    {}

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Fire the latch.  The first caller's @p reason is kept. */
    void cancel(const std::string &reason);

    /**
     * One relaxed load for a token with neither a deadline nor a
     * parent; otherwise also the parent's cancelled() and a clock read.
     * Safe on any hot path.
     */
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        return (parent_ || deadline_.valid()) && upstreamFired();
    }

    /**
     * Why the token fired: the latch's reason, else the parent's, else
     * that the deadline expired; "" while not cancelled.
     */
    std::string reason() const;

    /** Throw CancelledError(reason) if the token has fired. */
    void throwIfCancelled() const;

  private:
    /** The parent has fired or the deadline has passed. */
    bool upstreamFired() const;

    std::atomic<bool> cancelled_{false};
    const Deadline deadline_;
    const CancelToken *const parent_;
    mutable std::mutex mutex_;
    std::string reason_;   //!< guarded by mutex_
};

} // namespace resil
} // namespace trb

#endif // TRB_RESIL_CANCEL_HH
