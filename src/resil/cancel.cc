#include "resil/cancel.hh"

namespace trb
{
namespace resil
{

void
CancelToken::cancel(const std::string &reason)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (reason_.empty())
            reason_ = reason.empty() ? "cancelled" : reason;
    }
    // The reason is published before the flag so a poller that observes
    // cancelled() == true always reads a complete reason.
    cancelled_.store(true, std::memory_order_release);
}

bool
CancelToken::upstreamFired() const
{
    return (parent_ && parent_->cancelled()) || deadline_.expired();
}

std::string
CancelToken::reason() const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!reason_.empty())
            return reason_;
    }
    if (parent_ && parent_->cancelled())
        return parent_->reason();
    if (deadline_.expired())
        return "deadline expired";
    return "";
}

void
CancelToken::throwIfCancelled() const
{
    if (cancelled())
        throw CancelledError(reason());
}

Deadline
Deadline::after(std::uint64_t ms)
{
    Deadline d;
    d.set_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(ms);
    return d;
}

bool
Deadline::expired() const
{
    return set_ && std::chrono::steady_clock::now() >= at_;
}

} // namespace resil
} // namespace trb
