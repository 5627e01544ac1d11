/**
 * @file
 * Predictor building blocks: saturating counters and folded global-history
 * shift registers, shared by the direction, indirect and data-prefetch
 * predictors.
 */

#ifndef TRB_COMMON_COUNTERS_HH
#define TRB_COMMON_COUNTERS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/aligned.hh"
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
 * TAGE's geometric history lengths: @p n lengths from @p min_len to
 * @p max_len, each at least one bit longer than the one before.
 */
inline std::vector<unsigned>
geometricHistoryLengths(unsigned n, unsigned min_len, unsigned max_len)
{
    std::vector<unsigned> lengths(n);
    double ratio = std::pow(static_cast<double>(max_len) / min_len,
                            1.0 / (n - 1));
    double len = min_len;
    for (unsigned t = 0; t < n; ++t) {
        lengths[t] = std::max<unsigned>(1, static_cast<unsigned>(len + 0.5));
        if (t > 0 && lengths[t] <= lengths[t - 1])
            lengths[t] = lengths[t - 1] + 1;
        len *= ratio;
    }
    return lengths;
}

/**
 * A long global history register and its folded images, the classic
 * TAGE mechanism, kept as lane arrays.  Table t reads the last
 * lengths[t] history bits, and each table's window is folded once per
 * width ("fold" f): lane f * tables + t holds table t's image under
 * fold f.  A push reads each table's evicted bit once, then updates
 * every lane from per-lane precomputed masks in a loop without calls
 * or branches.
 */
class GlobalHistory
{
  public:
    /**
     * @param lengths history bits each table consumes
     * @param widths width of each fold's images (1..31 bits)
     */
    GlobalHistory(const std::vector<unsigned> &lengths,
                  std::initializer_list<unsigned> widths)
        : tables_(lengths.size()), evicted_(lengths.size(), 0)
    {
        unsigned longest = 0;
        for (unsigned len : lengths) {
            trb_assert(len >= 1, "history length");
            back_.push_back(len - 1);
            longest = std::max(longest, len);
        }
        for (unsigned width : widths) {
            trb_assert(width >= 1 && width <= 31, "folded width");
            for (unsigned len : lengths) {
                lanes_.push_back(0);
                outBit_.push_back(1u << (len % width));
                topBit_.push_back(1u << width);
            }
        }
        // A power of two above the longest window, so an index wraps
        // with a mask and every bit a lane evicts is the one pushed
        // that many branches ago.
        ring_.assign(std::bit_ceil(std::size_t{longest} + 1), 0);
        ringMask_ = ring_.size() - 1;
    }

    /** Shift @p bit in and each table's oldest bit out of its window. */
    void
    push(bool bit)
    {
        // Evicted bits must be read before the head moves.
        for (std::size_t t = 0; t < tables_; ++t)
            evicted_[t] = 0u - ring_[(head_ - back_[t]) & ringMask_];
        const std::uint32_t in = bit ? 1u : 0u;
        for (std::size_t base = 0; base < lanes_.size(); base += tables_) {
            std::uint32_t *lane = lanes_.data() + base;
            const std::uint32_t *out = outBit_.data() + base;
            const std::uint32_t *top = topBit_.data() + base;
            for (std::size_t t = 0; t < tables_; ++t) {
                std::uint32_t c = (lane[t] << 1) | in;
                c ^= evicted_[t] & out[t];
                // The bit shifted past the width wraps round to bit 0.
                c ^= (c & top[t]) ? (top[t] | 1u) : 0u;
                lane[t] = c;
            }
        }
        head_ = (head_ + 1) & ringMask_;
        ring_[head_] = bit ? 1 : 0;
    }

    /** Table @p t's history folded to fold @p f's width. */
    std::uint32_t
    fold(unsigned f, unsigned t) const
    {
        return lanes_[f * tables_ + t];
    }

  private:
    std::size_t tables_;
    AlignedVector<std::uint32_t> lanes_;
    /** Per lane: where the evicted bit leaves, 1 << (length % width). */
    AlignedVector<std::uint32_t> outBit_;
    /** Per lane: the bit a shift pushes past the width, 1 << width. */
    AlignedVector<std::uint32_t> topBit_;
    /** Per table: all ones when the current push evicts a 1. */
    AlignedVector<std::uint32_t> evicted_;
    /** Per table: distance from the head to its oldest bit. */
    std::vector<std::size_t> back_;
    std::vector<std::uint8_t> ring_;
    std::size_t ringMask_ = 0;
    std::size_t head_ = 0;
};

} // namespace trb

#endif // TRB_COMMON_COUNTERS_HH
