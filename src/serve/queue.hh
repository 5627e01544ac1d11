/**
 * @file
 * A bounded multi-tenant queue with round-robin fairness: the daemon's
 * admission control.
 *
 * Each client gets its own lane; pop() visits lanes in rotation, taking
 * one item from a lane before moving on, so a greedy client that floods
 * hundreds of requests cannot starve a client that submits one.  The bound is global (summed over lanes): a push beyond
 * it fails, and the caller turns that into the typed `busy` reply --
 * backpressure travels to the submitter instead of growing an unbounded
 * heap of parsed requests.
 *
 * Header-only and deliberately dumb: one mutex, no condition variable.
 * The daemon's workers own the blocking (they sleep on the daemon's cv,
 * which a reader pokes after each push()), and the tests drive the
 * queue directly.
 */

#ifndef TRB_SERVE_QUEUE_HH
#define TRB_SERVE_QUEUE_HH

#include <cstddef>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <utility>

namespace trb
{
namespace serve
{

/** Bounded per-client-lane queue with round-robin pop. */
template <typename T>
class FairQueue
{
  public:
    /** @param bound max items across all lanes; pushes beyond it fail */
    explicit FairQueue(std::size_t bound) : bound_(bound) {}

    /**
     * Enqueue @p item on @p client's lane.  False when the global bound
     * is reached -- the caller replies `busy` and drops the item.
     */
    bool
    push(const std::string &client, T item)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (size_ >= bound_)
            return false;
        Lane *lane = nullptr;
        for (Lane &l : lanes_)
            if (l.client == client) {
                lane = &l;
                break;
            }
        if (!lane) {
            // New lanes join *behind* the rotation cursor so an
            // arriving client waits at most one full rotation.
            lanes_.push_back(Lane{client, {}});
            lane = &lanes_.back();
            if (lanes_.size() == 1)
                cursor_ = lanes_.begin();
        }
        lane->items.push_back(std::move(item));
        ++size_;
        return true;
    }

    /**
     * Dequeue the next item under the rotation policy.  False when
     * empty.  Lanes drained to empty are erased, so a departed client
     * costs nothing.
     */
    bool
    pop(T &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (size_ == 0)
            return false;
        // Find the next non-empty lane from the cursor (lanes are only
        // ever empty transiently here; erase keeps the invariant that
        // persisted lanes hold items).
        while (cursor_->items.empty())
            advance();
        out = std::move(cursor_->items.front());
        cursor_->items.pop_front();
        --size_;
        if (cursor_->items.empty()) {
            cursor_ = lanes_.erase(cursor_);
            if (cursor_ == lanes_.end())
                cursor_ = lanes_.begin();
        } else {
            advance();
        }
        return true;
    }

    /** Items currently queued, across all lanes. */
    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    /** Lanes (distinct queued clients) currently held. */
    std::size_t
    lanes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lanes_.size();
    }

    std::size_t bound() const { return bound_; }

  private:
    struct Lane
    {
        std::string client;
        std::deque<T> items;
    };

    /** Rotate the cursor one lane forward (wrapping). */
    void
    advance()
    {
        if (++cursor_ == lanes_.end())
            cursor_ = lanes_.begin();
    }

    const std::size_t bound_;

    mutable std::mutex mutex_;
    std::list<Lane> lanes_;
    typename std::list<Lane>::iterator cursor_ = lanes_.end();
    std::size_t size_ = 0;     //!< total queued items
};

} // namespace serve
} // namespace trb

#endif // TRB_SERVE_QUEUE_HH
