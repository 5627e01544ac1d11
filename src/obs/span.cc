#include "obs/span.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "common/env.hh"
#include "obs/metrics.hh"
#include "obs/pipeline_trace.hh"
#include "obs/profile.hh"
#include "par/thread_pool.hh"

namespace trb
{
namespace obs
{

namespace
{

/** Innermost live SpanScope on this thread: the next span's parent. */
thread_local SpanScope *tl_current_span = nullptr;

/** -1 = not yet read, else 0/1. */
std::atomic<int> g_spans_enabled{-1};

std::chrono::steady_clock::time_point
epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

} // namespace

bool
SpanTimeline::enabled()
{
    int state = g_spans_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        const char *path = env::raw("TRB_OBS_SPANS");
        state = (path && *path) ? 1 : 0;
        g_spans_enabled.store(state, std::memory_order_relaxed);
    }
    return state != 0;
}

void
SpanTimeline::setEnabledForTests(int on)
{
    g_spans_enabled.store(on < 0 ? -1 : (on ? 1 : 0),
                          std::memory_order_relaxed);
}

double
SpanTimeline::nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch())
        .count();
}

void
SpanTimeline::record(SpanEvent ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(ev));
}

std::size_t
SpanTimeline::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<SpanEvent>
SpanTimeline::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanTimeline::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

namespace
{

void
writeProcessName(std::ostream &os, const char *&sep, unsigned long long pid,
                 const std::string &name)
{
    os << sep << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": 0, \"args\": {\"name\": "
       << jsonQuote(name) << "}}";
    sep = ",";
}

void
writeInstrSlice(std::ostream &os, const char *&sep, const char *name,
                unsigned long long pid, const InstrEvent &ev,
                std::uint64_t begin, std::uint64_t end)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %llu, "
                  "\"dur\": %llu, \"pid\": %llu, \"tid\": %llu, "
                  "\"args\": {\"seq\": %llu, \"ip\": \"0x%llx\"}}",
                  sep, name, static_cast<unsigned long long>(begin),
                  static_cast<unsigned long long>(
                      end > begin ? end - begin : 1),
                  pid, static_cast<unsigned long long>(ev.seq % 64),
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(ev.ip));
    os << buf;
    sep = ",";
}

} // namespace

void
SpanTimeline::writeChromeTrace(std::ostream &os, bool merge_pipeline) const
{
    const std::vector<SpanEvent> spans = snapshot();
    os << "{\"traceEvents\": [";
    const char *sep = "";
    writeProcessName(os, sep, 0, "trb spans (wall-clock us, tid = worker)");
    for (const SpanEvent &s : spans) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\n  {\"name\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": 0, \"tid\": %u, ",
                      sep, jsonQuote(s.name).c_str(), s.startUs,
                      s.durUs > 0.0 ? s.durUs : 0.001, s.worker);
        os << buf << "\"cat\": " << jsonQuote(s.phase)
           << ", \"args\": {\"depth\": " << s.depth;
        if (s.items)
            os << ", \"items\": " << s.items;
        os << "}}";
        sep = ",";
    }
    if (merge_pipeline) {
        for (const auto &[worker, events] :
             PipelineTracer::collectAllThreads()) {
            if (events.empty())
                continue;
            const unsigned long long pid = 1 + worker;
            writeProcessName(os, sep, pid,
                             "pipeline worker " + std::to_string(worker) +
                                 " (cycles)");
            for (const InstrEvent &ev : events) {
                writeInstrSlice(os, sep, "frontend", pid, ev, ev.fetch,
                                ev.dispatch);
                writeInstrSlice(os, sep, "wait", pid, ev, ev.dispatch,
                                ev.issue);
                writeInstrSlice(os, sep, "execute", pid, ev, ev.issue,
                                ev.complete);
                writeInstrSlice(os, sep, "commit", pid, ev, ev.complete,
                                ev.retire);
            }
        }
    }
    os << "\n]}\n";
}

SpanTimeline &
SpanTimeline::global()
{
    static SpanTimeline timeline;
    return timeline;
}

SpanScope::SpanScope(const char *name, std::string label)
    : name_(name), label_(std::move(label)), parent_(tl_current_span),
      depth_(parent_ ? parent_->depth_ + 1 : 0),
      startUs_(SpanTimeline::nowUs())
{
    tl_current_span = this;
}

SpanScope::~SpanScope()
{
    const double dur_us = SpanTimeline::nowUs() - startUs_;
    tl_current_span = parent_;
    if (parent_)
        parent_->childUs_ += dur_us;
    PhaseProfile::global().add(name_, dur_us * 1e-6,
                               (dur_us - childUs_) * 1e-6, items_);
    if (!SpanTimeline::enabled())
        return;
    SpanEvent ev;
    ev.name = name_;
    if (!label_.empty())
        ev.name += "." + label_;
    ev.phase = name_;
    ev.startUs = startUs_;
    ev.durUs = dur_us;
    ev.worker = static_cast<std::uint32_t>(par::workerId());
    ev.depth = depth_;
    ev.items = items_;
    SpanTimeline::global().record(std::move(ev));
}

} // namespace obs
} // namespace trb
