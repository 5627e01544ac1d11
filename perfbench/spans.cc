#include "spans.hh"

#include <chrono>
#include <cstdio>

namespace perfbench
{

namespace
{

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::vector<double>
childSeconds(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<double> children(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0 && s.endNs >= 0)
            children[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return children;
}

} // namespace

std::size_t
SpanLog::begin(const std::string &name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t index)
{
    spans_[index].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
summarize(const SpanLog &log, std::map<std::string, SpanTotals> &totals)
{
    const std::vector<double> children = childSeconds(log);
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double dur =
            static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-9;
        SpanTotals &t = totals[spans[i].name];
        ++t.count;
        t.totalS += dur;
        t.selfS += dur - children[i];
    }
}

double
rootSeconds(const SpanLog &log)
{
    double total = 0.0;
    for (const Span &s : log.spans())
        if (s.parent < 0)
            total += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return total;
}

std::string
checkSpans(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    const std::vector<double> children = childSeconds(log);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string where = "span " + std::to_string(i) + " (" +
                                  s.name + ")";
        if (s.endNs < s.startNs)
            return where + " is not closed";
        // Integer nanoseconds convert exactly, so a nested log can never
        // show a negative self time; allow only rounding in the sum.
        const double dur = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        if (dur - children[i] < -1e-12)
            return where + " has negative self time";
        if (s.parent >= 0) {
            const Span &p = spans[static_cast<std::size_t>(s.parent)];
            if (s.startNs < p.startNs || s.endNs > p.endNs)
                return where + " outlasts its parent " + p.name;
        }
    }
    return "";
}

bool
writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"schema\": \"trb-perfbench-spans-v1\", \"spans\": [");
    bool first = true;
    for (const SpanLog *log : logs) {
        for (const Span &s : log->spans()) {
            std::fprintf(f,
                         "%s\n{\"thread\": %u, \"name\": \"%s\", \"id\": %llu, "
                         "\"parent\": %lld, \"start_ns\": %lld, "
                         "\"end_ns\": %lld}",
                         first ? "" : ",", log->thread(), s.name.c_str(),
                         static_cast<unsigned long long>(s.id),
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
