#include "obs/metrics.hh"

#include "common/env.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "obs/profile.hh"
#include "obs/span.hh"

namespace trb
{
namespace obs
{

std::uint64_t &
MetricsRegistry::counterLocked(const std::string &path)
{
    auto it = counterIndex_.find(path);
    if (it == counterIndex_.end()) {
        it = counterIndex_.emplace(path, counters_.size()).first;
        counters_.push_back({path, 0});
    }
    return counters_[it->second].value;
}

double &
MetricsRegistry::gaugeLocked(const std::string &path)
{
    auto it = gaugeIndex_.find(path);
    if (it == gaugeIndex_.end()) {
        it = gaugeIndex_.emplace(path, gauges_.size()).first;
        gauges_.push_back({path, 0.0});
    }
    return gauges_[it->second].value;
}

std::uint64_t &
MetricsRegistry::counter(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counterLocked(path);
}

double &
MetricsRegistry::gauge(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gaugeLocked(path);
}

Histogram &
MetricsRegistry::histogram(const std::string &path,
                           std::uint64_t bucket_width,
                           std::size_t num_buckets)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histogramIndex_.find(path);
    if (it == histogramIndex_.end()) {
        it = histogramIndex_.emplace(path, histograms_.size()).first;
        histograms_.push_back({path, Histogram(bucket_width, num_buckets)});
    }
    return histograms_[it->second].hist;
}

void
MetricsRegistry::setCounter(const std::string &path, std::uint64_t v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counterLocked(path) = v;
}

void
MetricsRegistry::setGauge(const std::string &path, double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gaugeLocked(path) = v;
}

void
MetricsRegistry::addCounter(const std::string &path, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counterLocked(path) += delta;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counterIndex_.find(path);
    return it == counterIndex_.end() ? 0 : counters_[it->second].value;
}

double
MetricsRegistry::gaugeValue(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gaugeIndex_.find(path);
    return it == gaugeIndex_.end() ? 0.0 : gauges_[it->second].value;
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    counterIndex_.clear();
    gaugeIndex_.clear();
    histogramIndex_.clear();
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.counters.assign(counters_.begin(), counters_.end());
    snap.gauges.assign(gauges_.begin(), gauges_.end());
    snap.histograms.assign(histograms_.begin(), histograms_.end());
    return snap;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace
{

/** Shortest decimal that round-trips a double. */
std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    const Snapshot snap = snapshot();
    os << "{\n  \"counters\": {";
    const char *sep = "";
    for (const CounterEntry &c : snap.counters) {
        os << sep << "\n    " << jsonQuote(c.path) << ": " << c.value;
        sep = ",";
    }
    os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    sep = "";
    for (const GaugeEntry &g : snap.gauges) {
        os << sep << "\n    " << jsonQuote(g.path) << ": "
           << jsonDouble(g.value);
        sep = ",";
    }
    os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    sep = "";
    for (const HistogramEntry &h : snap.histograms) {
        os << sep << "\n    " << jsonQuote(h.path) << ": {"
           << "\"bucket_width\": " << h.hist.bucketWidth()
           << ", \"total\": " << h.hist.total()
           << ", \"mean\": " << jsonDouble(h.hist.meanValue())
           << ", \"p50\": " << h.hist.percentile(50)
           << ", \"p95\": " << h.hist.percentile(95)
           << ", \"p99\": " << h.hist.percentile(99) << ", \"buckets\": [";
        const char *bsep = "";
        for (std::uint64_t b : h.hist.buckets()) {
            os << bsep << b;
            bsep = ", ";
        }
        os << "]}";
        sep = ",";
    }
    os << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    const Snapshot snap = snapshot();
    os << "kind,path,value\n";
    for (const CounterEntry &c : snap.counters)
        os << "counter," << c.path << "," << c.value << "\n";
    for (const GaugeEntry &g : snap.gauges)
        os << "gauge," << g.path << "," << jsonDouble(g.value) << "\n";
    for (const HistogramEntry &h : snap.histograms) {
        os << "histogram," << h.path << ".total," << h.hist.total() << "\n";
        os << "histogram," << h.path << ".mean,"
           << jsonDouble(h.hist.meanValue()) << "\n";
        os << "histogram," << h.path << ".p50," << h.hist.percentile(50)
           << "\n";
        os << "histogram," << h.path << ".p95," << h.hist.percentile(95)
           << "\n";
        os << "histogram," << h.path << ".p99," << h.hist.percentile(99)
           << "\n";
    }
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

std::string
MetricsRegistry::toCsv() const
{
    std::ostringstream os;
    writeCsv(os);
    return os.str();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

// ---- ThreadMetricsBuffer ----

void
ThreadMetricsBuffer::add(const std::string &path, std::uint64_t delta)
{
    auto it = counterIndex_.find(path);
    if (it == counterIndex_.end()) {
        counterIndex_.emplace(path, counters_.size());
        counters_.emplace_back(path, delta);
        return;
    }
    counters_[it->second].second += delta;
}

void
ThreadMetricsBuffer::set(const std::string &path, double v)
{
    auto it = gaugeIndex_.find(path);
    if (it == gaugeIndex_.end()) {
        gaugeIndex_.emplace(path, gauges_.size());
        gauges_.emplace_back(path, v);
        return;
    }
    gauges_[it->second].second = v;
}

void
ThreadMetricsBuffer::flush()
{
    for (const auto &[path, delta] : counters_)
        target_.addCounter(path, delta);
    for (const auto &[path, v] : gauges_)
        target_.setGauge(path, v);
    counters_.clear();
    gauges_.clear();
    counterIndex_.clear();
    gaugeIndex_.clear();
}

// ---- process-end export ----

namespace
{

bool
writeFile(const char *env, const std::string &text, const char *what)
{
    const char *path = trb::env::raw(env);
    if (!path || !*path)
        return false;
    std::ofstream out(path);
    if (!out) {
        trb_warn("obs: cannot open ", path, " for ", what, " dump");
        return false;
    }
    out << text;
    trb_inform("obs: wrote ", what, " metrics to ", path);
    return true;
}

} // namespace

bool
dumpIfRequested()
{
    const MetricsRegistry &reg = MetricsRegistry::global();
    bool wrote = writeFile("TRB_OBS_JSON", reg.toJson(), "JSON");
    wrote |= writeFile("TRB_OBS_CSV", reg.toCsv(), "CSV");

    // The merged span/pipeline timeline, if spans were collected.
    const char *spans_path = trb::env::raw("TRB_OBS_SPANS");
    if (spans_path && *spans_path) {
        std::ofstream out(spans_path);
        if (!out) {
            trb_warn("obs: cannot open ", spans_path, " for the span trace");
        } else {
            SpanTimeline::global().writeChromeTrace(out);
            trb_inform("obs: wrote span timeline to ", spans_path);
            wrote = true;
        }
    }
    return wrote;
}

namespace
{
bool g_finished = false;
} // namespace

namespace detail
{

void
resetFinishForTests()
{
    g_finished = false;
}

} // namespace detail

bool
finish()
{
    if (g_finished)
        return false;
    g_finished = true;
    const PhaseProfile &phases = PhaseProfile::global();
    phases.exportTo(MetricsRegistry::global(), "phase");
    if (logEnabled(LogLevel::Info)) {
        const std::string report = phases.report("  ");
        if (!report.empty())
            trb_inform("phase profile:\n", report);
    }
    return dumpIfRequested();
}

} // namespace obs
} // namespace trb
