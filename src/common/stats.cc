#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace trb
{

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        trb_assert(v > 0.0, "geomean needs positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<double>
finiteValues(const std::vector<double> &values)
{
    std::vector<double> out;
    out.reserve(values.size());
    for (double v : values)
        if (std::isfinite(v))
            out.push_back(v);
    return out;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    auto hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
mpki(std::uint64_t events, std::uint64_t instructions)
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(events) /
           static_cast<double>(instructions);
}

std::string
fmtDouble(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Nearest rank: the smallest k with cumulative(k) >= ceil(p% * n).
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total_)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        cum += counts_[b];
        if (cum >= rank)
            return static_cast<std::uint64_t>(b) * width_;
    }
    return static_cast<std::uint64_t>(counts_.size() - 1) * width_;
}

std::string
Histogram::report(const std::string &prefix) const
{
    std::ostringstream os;
    const std::size_t overflow = counts_.size() - 1;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        if (counts_[b] == 0)
            continue;
        std::uint64_t lo = static_cast<std::uint64_t>(b) * width_;
        os << prefix << "[" << lo << ", ";
        if (b == overflow)
            os << "inf";
        else
            os << lo + width_;
        os << ") " << counts_[b] << " "
           << fmtDouble(total_ ? 100.0 * double(counts_[b]) / double(total_)
                               : 0.0, 1)
           << "%\n";
    }
    os << prefix << "total " << total_ << " mean "
       << fmtDouble(meanValue()) << " p50 " << percentile(50) << " p99 "
       << percentile(99) << "\n";
    return os.str();
}

} // namespace trb
