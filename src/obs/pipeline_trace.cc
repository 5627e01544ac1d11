#include "obs/pipeline_trace.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/env.hh"

namespace trb
{
namespace obs
{

const char *
squashCauseName(SquashCause c)
{
    switch (c) {
      case SquashCause::None: return "none";
      case SquashCause::DirectionMispredict: return "direction";
      case SquashCause::TargetMispredict: return "target";
    }
    return "?";
}

PipelineTracer::PipelineTracer(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1))
{
}

std::size_t
PipelineTracer::capacityFromEnv(std::size_t def)
{
    return std::max<std::uint64_t>(env::u64("TRB_TRACE_BUF", def), 1);
}

void
PipelineTracer::clear()
{
    recorded_ = 0;
}

std::vector<InstrEvent>
PipelineTracer::events() const
{
    std::vector<InstrEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = recorded_ - n;
    for (std::uint64_t i = first; i < recorded_; ++i)
        out.push_back(ring_[i % ring_.size()]);
    return out;
}

namespace
{

/** One Chrome "complete" slice; durations are padded to 1 cycle so
 *  zero-length stages stay visible in the viewer. */
void
writeSlice(std::ostream &os, const char *&sep, const char *name,
           const InstrEvent &ev, Cycle begin, Cycle end)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %llu, "
                  "\"dur\": %llu, \"pid\": 0, \"tid\": %llu, "
                  "\"args\": {\"seq\": %llu, \"ip\": \"0x%llx\"}}",
                  sep, name,
                  static_cast<unsigned long long>(begin),
                  static_cast<unsigned long long>(
                      end > begin ? end - begin : 1),
                  static_cast<unsigned long long>(ev.seq % 64),
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<unsigned long long>(ev.ip));
    os << buf;
    sep = ",";
}

} // namespace

void
PipelineTracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\": [";
    const char *sep = "";
    for (const InstrEvent &ev : events()) {
        writeSlice(os, sep, "frontend", ev, ev.fetch, ev.dispatch);
        writeSlice(os, sep, "wait", ev, ev.dispatch, ev.issue);
        writeSlice(os, sep, "execute", ev, ev.issue, ev.complete);
        writeSlice(os, sep, "commit", ev, ev.complete, ev.retire);
        if (ev.squash != SquashCause::None) {
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "%s\n  {\"name\": \"squash:%s\", \"ph\": \"i\", "
                          "\"ts\": %llu, \"pid\": 0, \"tid\": %llu, "
                          "\"s\": \"t\"}",
                          sep, squashCauseName(ev.squash),
                          static_cast<unsigned long long>(ev.complete),
                          static_cast<unsigned long long>(ev.seq % 64));
            os << buf;
        }
    }
    os << "\n]}\n";
}

namespace
{

/** Lane width: stamps past this many cycles clamp to the last column. */
constexpr std::size_t kLaneWidth = 48;

const char *
kindTag(const InstrEvent &ev)
{
    if (ev.branch != BranchType::NotBranch)
        return "br ";
    if (ev.isLoad)
        return "ld ";
    if (ev.isStore)
        return "st ";
    return "   ";
}

} // namespace

std::string
renderLaneView(const std::vector<InstrEvent> &events, Addr lo, Addr hi,
               std::size_t max_instrs)
{
    std::ostringstream os;
    os << "      seq          ip  kind  lane (f=fetch d=dispatch i=issue "
          "c=complete r=retire, cycles from fetch)\n";

    std::size_t shown = 0;
    for (const InstrEvent &ev : events) {
        if (ev.ip < lo || ev.ip > hi)
            continue;
        if (max_instrs && shown >= max_instrs) {
            os << "... (" << max_instrs << "-instruction cap reached)\n";
            break;
        }
        ++shown;

        std::string lane(kLaneWidth, '.');
        auto put = [&](Cycle stamp, char letter) {
            std::size_t col = static_cast<std::size_t>(
                stamp >= ev.fetch ? stamp - ev.fetch : 0);
            if (col >= kLaneWidth) {
                col = kLaneWidth - 1;
                lane[col - 1] = '>';
            }
            lane[col] = letter;
        };
        put(ev.fetch, 'f');
        put(ev.dispatch, 'd');
        put(ev.issue, 'i');
        put(ev.complete, 'c');
        put(ev.retire, 'r');

        char head[64];
        std::snprintf(head, sizeof(head), "%9llu  0x%08llx  %s  [",
                      static_cast<unsigned long long>(ev.seq),
                      static_cast<unsigned long long>(ev.ip),
                      kindTag(ev));
        os << head << lane << "]";
        if (ev.branch != BranchType::NotBranch)
            os << " " << branchTypeName(ev.branch);
        if (ev.squash != SquashCause::None)
            os << " squash=" << squashCauseName(ev.squash);
        os << "\n";
    }
    if (shown == 0)
        os << "(no traced instructions in the requested PC range)\n";
    return os.str();
}

} // namespace obs
} // namespace trb
