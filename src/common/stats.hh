/**
 * @file
 * Small statistics toolkit: ratio formatting, histograms, and the
 * aggregate helpers (geometric mean, percentiles) the experiment
 * harness uses to reproduce the paper's figures.
 */

#ifndef TRB_COMMON_STATS_HH
#define TRB_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace trb
{

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &values);

/**
 * Copy with the non-finite entries dropped.  Quarantined traces leave
 * NaN in their index-addressed result slots; aggregate over
 * finiteValues(slots) so a fault-isolated run still produces a number.
 */
std::vector<double> finiteValues(const std::vector<double> &values);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &values);

/** p-th percentile (0..100) by nearest-rank on a copy; 0 if empty. */
double percentile(std::vector<double> values, double p);

/** Misses-per-kilo-instruction helper. */
double mpki(std::uint64_t events, std::uint64_t instructions);

/** Format a double with fixed precision into a string. */
std::string fmtDouble(double v, int precision = 2);

/**
 * Fixed-bucket histogram over uint64 samples (linear buckets plus an
 * overflow bucket), for distributions like dependency distance or
 * miss latency.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
        : width_(bucket_width ? bucket_width : 1),
          counts_(num_buckets + 1, 0)
    {}

    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        std::size_t b = value / width_;
        if (b >= counts_.size() - 1)
            b = counts_.size() - 1;
        counts_[b] += count;
        total_ += count;
        sum_ += value * count;
    }

    std::uint64_t total() const { return total_; }
    double
    meanValue() const
    {
        return total_ ? static_cast<double>(sum_) /
                            static_cast<double>(total_)
                      : 0.0;
    }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }
    std::uint64_t bucketWidth() const { return width_; }

    /**
     * p-th percentile (0..100) by nearest rank over the buckets.
     *
     * Returns the lower edge of the bucket holding the p-th ranked
     * sample (the overflow bucket reports its lower edge, i.e. the
     * histogram range); 0 if no samples.
     */
    std::uint64_t percentile(double p) const;

    /**
     * Render a bucket table: one "[lo, hi) count share" row per
     * non-empty bucket plus a summary line (total, mean, p50, p99).
     */
    std::string report(const std::string &prefix = "") const;

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace trb

#endif // TRB_COMMON_STATS_HH
