#include "cache/hierarchy.hh"

namespace trb
{

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2),
      llc_(params.llc)
{
}

Cycle
MemoryHierarchy::walkShared(Addr line, bool write, bool demand,
                            bool prefetched)
{
    bool l2_hit;
    if (demand) {
        ++counters_.l2Accesses;
        l2_hit = l2_.access(line, false).has_value();
        if (!l2_hit)
            ++counters_.l2Misses;
    } else {
        l2_hit = l2_.probe(line);
    }

    // The L2 next-line prefetcher observes all L2 demand traffic (hits
    // included, or a marching stream would only ever run one line ahead).
    if (demand && params_.l2NextLine) {
        Addr cand = NextLinePrefetcher::candidate(line);
        if (!l2_.probe(cand) && !llc_.probe(cand)) {
            ++counters_.prefetchesIssued;
            // Next-line fill: bring into L2 (and LLC) quietly.
            llc_.insert(cand, false, true);
            l2_.insert(cand, false, true);
        }
    }

    if (l2_hit)
        return params_.l2.latency;

    // From here on the line is absent from the L2 (and, past the LLC
    // lookup, from the LLC): the next-line fill above is another line.
    Cycle lat = params_.l2.latency;
    bool llc_hit;
    if (demand) {
        ++counters_.llcAccesses;
        llc_hit = llc_.access(line, false).has_value();
        if (!llc_hit)
            ++counters_.llcMisses;
    } else {
        llc_hit = llc_.probe(line);
    }
    if (llc_hit) {
        l2_.insert(line, false, prefetched);
        return lat + params_.llc.latency;
    }

    // DRAM.
    llc_.insert(line, write, prefetched);
    l2_.insert(line, false, prefetched);
    return lat + params_.llc.latency + params_.dramLatency;
}

Cycle
MemoryHierarchy::fillL1(L1 &l1, Addr line, bool write, bool demand,
                        bool prefetched, Cycle now)
{
    Cycle beyond = walkShared(line, write, demand, prefetched);
    // The victim's slot, and with it any fill still stamped on it, goes
    // to the new line.
    l1.fillReady[l1.tags.insert(line, write, prefetched).slot] =
        now + beyond;
    return beyond;
}

namespace
{

/** Classify a beyond-L1 delay into the level that provided the data. */
unsigned
levelOf(Cycle beyond, const HierarchyParams &p)
{
    if (beyond == 0)
        return 1;
    if (beyond <= p.l2.latency)
        return 2;
    if (beyond <= p.l2.latency + p.llc.latency)
        return 3;
    return 4;
}

} // namespace

AccessResult
MemoryHierarchy::access(AccessKind kind, Addr addr, Addr ip, Cycle now)
{
    const bool instr = kind == AccessKind::Instr;
    const bool write = kind == AccessKind::Store;
    L1 &l1 = instr ? l1i_ : l1d_;
    std::uint64_t &misses =
        instr ? counters_.l1iMisses : counters_.l1dMisses;
    const Addr line = lineAddr(addr);

    AccessResult res;
    res.latency = l1.tags.params().latency;
    ++(instr ? counters_.l1iAccesses : counters_.l1dAccesses);
    if (std::optional<std::size_t> slot = l1.tags.access(line, write)) {
        // Tag hit, but the fill may still be in flight (a late prefetch
        // or an MSHR merge): pay the remaining time and count it as a
        // demand miss.
        Cycle &ready = l1.fillReady[*slot];
        if (ready > now) {
            res.latency += ready - now;
            res.l1Miss = true;
            ++misses;
            ++(instr ? counters_.l1iMshrMerges : counters_.l1dMshrMerges);
            res.level = levelOf(ready - now, params_);
        } else {
            // The fill has completed; clear it, so a later access stamped
            // earlier (stores access at retire, loads at issue) does not
            // wait for it either.
            ready = 0;
        }
    } else {
        ++misses;
        res.l1Miss = true;
        Cycle beyond = fillL1(l1, line, write, true, false, now);
        res.latency += beyond;
        res.level = levelOf(beyond, params_);
    }

    // Train the L1D prefetcher on every demand data access.  Prefetch
    // fills never train a prefetcher, so the candidates can be issued
    // straight from the scratch vector.
    if (!instr && params_.l1dIpStride) {
        pfScratch_.clear();
        l1dStride_.observe(ip, addr, pfScratch_);
        for (Addr cand : pfScratch_)
            prefetchL1(l1d_, cand, now);
    }
    return res;
}

bool
MemoryHierarchy::prefetchL1(L1 &l1, Addr addr, Cycle now)
{
    Addr line = lineAddr(addr);
    if (l1.tags.probe(line))
        return false;
    ++counters_.prefetchesIssued;
    fillL1(l1, line, false, false, true, now);
    return true;
}

bool
MemoryHierarchy::prefetchInstr(Addr addr, Cycle now)
{
    return prefetchL1(l1i_, addr, now);
}

bool
MemoryHierarchy::probeL1I(Addr addr, Cycle now) const
{
    std::optional<std::size_t> slot = l1i_.tags.find(lineAddr(addr));
    return slot && l1i_.fillReady[*slot] <= now;
}

} // namespace trb
