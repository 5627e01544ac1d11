/**
 * @file
 * Predictor building blocks: saturating counters and folded global-history
 * shift registers, shared by the direction, indirect and data-prefetch
 * predictors.
 */

#ifndef TRB_COMMON_COUNTERS_HH
#define TRB_COMMON_COUNTERS_HH

#include <cstdint>

#include "common/logging.hh"

namespace trb
{

/**
 * An n-bit saturating up/down counter.  Counts in [0, 2^bits - 1];
 * taken() reports the upper half.  Two bytes, so predictor tables of
 * them stay small in the host's caches.
 */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : max_(static_cast<std::uint8_t>((1u << bits) - 1)),
          value_(static_cast<std::uint8_t>(initial))
    {
        trb_assert(bits >= 1 && bits <= 8, "SatCounter bits out of range");
        trb_assert(initial <= max_, "SatCounter initial value too large");
    }

    void increment() { if (value_ < max_) ++value_; }
    void decrement() { if (value_ > 0) --value_; }
    void update(bool up) { up ? increment() : decrement(); }

    /** Reset to weakly-not-taken / weakly-taken midpoints. */
    void
    resetWeak(bool taken)
    {
        value_ = static_cast<std::uint8_t>(taken ? max_ / 2 + 1 : max_ / 2);
    }

    unsigned value() const { return value_; }
    unsigned max() const { return max_; }
    bool taken() const { return value_ > max_ / 2; }
    bool saturatedHigh() const { return value_ == max_; }
    bool saturatedLow() const { return value_ == 0; }

    /** Confidence: distance from the midpoint, 0 = weakest. */
    unsigned
    confidence() const
    {
        unsigned mid = max_ / 2u;
        unsigned v = value_;
        return v > mid ? v - mid - 1 : mid - v;
    }

  private:
    std::uint8_t max_;
    std::uint8_t value_;
};

/**
 * A signed saturating counter in [-2^(bits-1), 2^(bits-1) - 1], as used by
 * TAGE's usefulness counters and the statistical corrector.
 */
class SignedSatCounter
{
  public:
    explicit SignedSatCounter(unsigned bits = 3, int initial = 0)
        : min_(static_cast<std::int16_t>(-(1 << (bits - 1)))),
          max_(static_cast<std::int16_t>((1 << (bits - 1)) - 1)),
          value_(static_cast<std::int16_t>(initial))
    {
        trb_assert(bits >= 2 && bits <= 16, "SignedSatCounter bits");
        trb_assert(initial >= min_ && initial <= max_,
                   "SignedSatCounter initial value out of range");
    }

    void
    update(bool up)
    {
        if (up && value_ < max_)
            ++value_;
        else if (!up && value_ > min_)
            --value_;
    }

    int value() const { return value_; }
    bool positive() const { return value_ >= 0; }
    int min() const { return min_; }
    int max() const { return max_; }

  private:
    std::int16_t min_;
    std::int16_t max_;
    std::int16_t value_;
};

/**
 * A long global history register folded into fixed-width hashes, the
 * classic TAGE mechanism: maintain the full history as a bit deque and
 * incremental folded images for index and tag computation.
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    /**
     * @param original_length history bits consumed
     * @param compressed_length width of the folded image
     */
    FoldedHistory(unsigned original_length, unsigned compressed_length)
        : compLen_(compressed_length),
          outPoint_(original_length % compressed_length),
          mask_(static_cast<std::uint32_t>((std::uint64_t{1} << compLen_) - 1))
    {
        trb_assert(compLen_ >= 1 && compLen_ <= 32, "folded width");
    }

    /**
     * Shift a new bit in and the oldest bit (provided by the caller from
     * the full history buffer) out.
     */
    void
    update(bool new_bit, bool evicted_bit)
    {
        comp_ = (comp_ << 1) | (new_bit ? 1u : 0u);
        comp_ ^= (evicted_bit ? 1u : 0u) << outPoint_;
        comp_ ^= comp_ >> compLen_;
        comp_ &= mask_;
    }

    std::uint32_t value() const { return comp_; }

  private:
    unsigned compLen_ = 1;
    unsigned outPoint_ = 0;
    std::uint32_t mask_ = 1;        //!< the low compLen_ bits
    std::uint32_t comp_ = 0;
};

} // namespace trb

#endif // TRB_COMMON_COUNTERS_HH
