#include "replay.hh"

#include "bench.hh"
#include "cache/hierarchy.hh"
#include "trace/branch_deduce.hh"
#include "uarch/btb.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace perfbench
{

namespace
{

// Caps keep the traced run's memory bounded (about 24 MiB + 6 MiB).
constexpr std::size_t kMaxMemEvents = 1u << 20;
constexpr std::size_t kMaxBranchEvents = 1u << 18;

/** Keeps the replayed results observable to the optimiser. */
volatile std::uint64_t g_replaySink = 0;

double
nsPer(Clock::time_point t0, std::size_t ops)
{
    return ops ? secondsSince(t0) * 1e9 / static_cast<double>(ops) : 0.0;
}

} // namespace

bool
ReplayStreams::full() const
{
    return mem.size() >= kMaxMemEvents || branches.size() >= kMaxBranchEvents;
}

void
ReplayStreams::extract(trb::ChampSimView trace, trb::DeductionRules rules)
{
    trb::Addr cur_line = ~trb::Addr{0};
    for (std::size_t i = 0; i < trace.size() && !full(); ++i) {
        const trb::ChampSimRecord &rec = trace[i];
        const trb::Addr line = trb::lineAddr(rec.ip);
        if (line != cur_line) {
            mem.push_back({rec.ip, rec.ip,
                           static_cast<std::uint8_t>(trb::AccessKind::Instr)});
            cur_line = line;
        }
        for (std::uint64_t a : rec.srcMem)
            if (a)
                mem.push_back(
                    {a, rec.ip,
                     static_cast<std::uint8_t>(trb::AccessKind::Load)});
        for (std::uint64_t a : rec.destMem)
            if (a)
                mem.push_back(
                    {a, rec.ip,
                     static_cast<std::uint8_t>(trb::AccessKind::Store)});
        if (rec.isBranch) {
            const bool taken = rec.branchTaken != 0;
            const trb::Addr next =
                i + 1 < trace.size() ? trace[i + 1].ip : rec.ip + 4;
            branches.push_back({rec.ip, taken ? next : 0,
                                trb::deduceBranchType(rec, rules), taken});
        }
    }
}

ReplayCost
replay(const ReplayStreams &streams, const trb::CoreParams &params,
       SpanLog *log)
{
    ReplayCost cost;
    std::uint64_t sink = 0;

    {
        trb::MemoryHierarchy mem(params.mem);
        SpanScope span(log, "cache.replay", 0);
        const auto t0 = Clock::now();
        trb::Cycle now = 0;
        for (const ReplayStreams::MemEvent &e : streams.mem)
            sink += mem.access(static_cast<trb::AccessKind>(e.kind), e.addr,
                               e.ip, ++now)
                        .latency;
        cost.cacheNsPerAccess = nsPer(t0, streams.mem.size());
    }

    {
        trb::TageScL tage;
        SpanScope span(log, "uarch.tage.replay", 0);
        const auto t0 = Clock::now();
        std::size_t ops = 0;
        for (const ReplayStreams::BranchEvent &b : streams.branches) {
            if (b.type != trb::BranchType::Conditional)
                continue;
            sink += tage.predict(b.ip);
            tage.update(b.ip, b.taken);
            ++ops;
        }
        cost.tageNs = nsPer(t0, ops);
    }

    {
        trb::Ittage ittage;
        SpanScope span(log, "uarch.ittage.replay", 0);
        const auto t0 = Clock::now();
        std::size_t ops = 0;
        for (const ReplayStreams::BranchEvent &b : streams.branches) {
            if (b.type != trb::BranchType::IndirectJump &&
                b.type != trb::BranchType::IndirectCall)
                continue;
            sink += ittage.predict(b.ip);
            ittage.update(b.ip, b.target);
            ++ops;
        }
        cost.ittageNs = nsPer(t0, ops);
    }

    {
        trb::Btb btb(params.btbEntries, params.btbWays);
        SpanScope span(log, "uarch.btb.replay", 0);
        const auto t0 = Clock::now();
        for (const ReplayStreams::BranchEvent &b : streams.branches) {
            sink += btb.lookup(b.ip).hit;
            if (b.taken)
                btb.update(b.ip, b.target, b.type);
        }
        cost.btbNs = nsPer(t0, streams.branches.size());
    }

    g_replaySink = sink;
    return cost;
}

} // namespace perfbench
