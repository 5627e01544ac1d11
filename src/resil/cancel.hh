/**
 * @file
 * Cooperative cancellation and deadlines for long-running simulations.
 *
 * A CancelToken is a one-way latch: once cancel()ed it stays cancelled.
 * Pollers (the O3Core hot loop, a serve worker before it simulates)
 * test it with one relaxed atomic load -- cheap enough to check every
 * few thousand retired instructions -- and bail out by throwing
 * CancelledError, which the owning layer translates into a typed
 * `timeout` Status.
 *
 * A Deadline is an absolute point on the *monotonic* clock
 * (std::chrono::steady_clock): wall-clock jumps -- NTP steps, suspend
 * and resume -- can neither expire a request early nor grant it extra
 * time.  A default-constructed Deadline is unset and never expires.
 *
 * Neither primitive does any enforcement on its own: something (the
 * serve daemon's watchdog, a test) observes the Deadline and fires the
 * CancelToken; the work being cancelled only ever polls the token.
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
 * One-way cancellation latch.  cancelled() is wait-free (one relaxed
 * load); cancel() may be called from any thread, any number of times
 * (the first reason wins).  Not copyable: share via pointer --
 * the serve daemon makes one shared_ptr<CancelToken> per running sim,
 * held by the worker and by the watchdog's in-flight map.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Fire the latch.  The first caller's @p reason is kept. */
    void cancel(const std::string &reason);

    /** One relaxed load; safe on any hot path. */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Why the token fired; "" while not cancelled. */
    std::string reason() const;

    /** Throw CancelledError(reason) if the token has fired. */
    void throwIfCancelled() const;

  private:
    std::atomic<bool> cancelled_{false};
    mutable std::mutex mutex_;
    std::string reason_;   //!< guarded by mutex_
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

    /**
     * Milliseconds until expiry, clamped to >= 0; a large sentinel
     * (~292 million years) when unset.
     */
    std::int64_t remainingMs() const;

  private:
    bool set_ = false;
    std::chrono::steady_clock::time_point at_{};
};

} // namespace resil
} // namespace trb

#endif // TRB_RESIL_CANCEL_HH
