#include "obs/profile.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"

namespace trb
{
namespace obs
{

void
PhaseProfile::add(std::string_view phase, double seconds,
                  double self_seconds, std::uint64_t items)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry &e) { return e.name == phase; });
    if (it == entries_.end())
        it = entries_.insert(it, Entry{std::string(phase)});
    it->seconds += seconds;
    it->selfSeconds += self_seconds;
    ++it->calls;
    it->items += items;
}

std::vector<PhaseProfile::Entry>
PhaseProfile::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

std::uint64_t
PhaseProfile::items(std::string_view phase) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry &e : entries_)
        if (e.name == phase)
            return e.items;
    return 0;
}

void
PhaseProfile::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

std::string
PhaseProfile::report(const std::string &prefix) const
{
    const std::vector<Entry> rows = entries();
    double total_self = 0.0;
    for (const Entry &e : rows)
        total_self += e.selfSeconds;

    std::ostringstream os;
    for (const Entry &e : rows) {
        os << prefix << e.name << " " << fmtDouble(e.seconds, 3)
           << "s self " << fmtDouble(e.selfSeconds, 3) << "s ("
           << fmtDouble(total_self > 0.0
                            ? 100.0 * e.selfSeconds / total_self
                            : 0.0,
                        1)
           << "%) " << e.calls << " calls";
        if (e.items)
            os << " " << fmtDouble(e.itemsPerSecond() / 1e6, 2)
               << " Mitems/s";
        os << "\n";
    }
    return os.str();
}

void
PhaseProfile::exportTo(MetricsRegistry &reg, const std::string &prefix) const
{
    for (const Entry &e : entries()) {
        const std::string base = prefix + "." + e.name;
        reg.setGauge(base + ".seconds", e.seconds);
        reg.setGauge(base + ".self_seconds", e.selfSeconds);
        reg.setCounter(base + ".calls", e.calls);
        if (e.items) {
            reg.setCounter(base + ".items", e.items);
            reg.setGauge(base + ".items_per_second", e.itemsPerSecond());
        }
    }
}

PhaseProfile &
PhaseProfile::global()
{
    static PhaseProfile profile;
    return profile;
}

SuiteProgress::Style
SuiteProgress::styleFromEnvironment()
{
    if (!logEnabled(LogLevel::Info))
        return Style::Silent;
#ifdef __linux__
    if (isatty(fileno(stderr)))
        return Style::Live;
#endif
    return Style::Sparse;
}

SuiteProgress::SuiteProgress(std::string what, std::size_t total)
    : SuiteProgress(std::move(what), total, styleFromEnvironment())
{
}

SuiteProgress::SuiteProgress(std::string what, std::size_t total,
                             Style style)
    : what_(std::move(what)), total_(total), style_(style),
      stride_(std::max<std::size_t>(1, total / 10)),
      start_(std::chrono::steady_clock::now())
{
}

void
SuiteProgress::step(std::size_t index, std::uint64_t items)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    items_ += items;
    if (style_ == Style::Live) {
        std::fprintf(stderr, "\r%s: %zu/%zu (%3.0f%%)", what_.c_str(),
                     done_, total_,
                     total_ ? 100.0 * double(done_) / double(total_) : 100.0);
        std::fflush(stderr);
    } else if (style_ == Style::Sparse &&
               (done_ % stride_ == 0 || done_ == total_)) {
        trb_inform(what_, ": ", done_, "/", total_, " (",
                   fmtDouble(total_ ? 100.0 * double(done_) /
                                          double(total_)
                                    : 100.0, 0),
                   "%)");
    }
    if (logEnabled(LogLevel::Debug)) {
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        trb_debug(what_, ": ", index + 1, "/", total_, " done in ",
                  fmtDouble(secs, 2), "s");
    }
}

SuiteProgress::~SuiteProgress()
{
    if (style_ == Style::Live && done_ > 0) {
        // Erase the carriage-return progress line before the summary.
        std::fputs("\r\033[2K", stderr);
        std::fflush(stderr);
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    std::ostringstream os;
    os << what_ << ": " << done_ << "/" << total_ << " traces in "
       << fmtDouble(secs, 2) << "s";
    if (items_ && secs > 0.0)
        os << " (" << fmtDouble(double(items_) / secs / 1e6, 2)
           << " Minstr/s)";
    trb_inform(os.str());
}

} // namespace obs
} // namespace trb
