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
        ++l2Acc_;
        l2_hit = l2_.access(line, false).has_value();
        if (!l2_hit)
            ++l2Miss_;
    } else {
        l2_hit = l2_.probe(line);
    }

    // The L2 next-line prefetcher observes all L2 demand traffic (hits
    // included, or a marching stream would only ever run one line ahead).
    if (demand && params_.l2NextLine) {
        Addr cand = NextLinePrefetcher::candidate(line);
        if (!l2_.probe(cand) && !llc_.probe(cand)) {
            ++pfIssued_;
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
        ++llcAcc_;
        llc_hit = llc_.access(line, false).has_value();
        if (!llc_hit)
            ++llcMiss_;
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
    const Addr line = lineAddr(addr);

    AccessResult res;
    res.latency = l1.tags.params().latency;
    ++l1.accesses;
    if (std::optional<std::size_t> slot = l1.tags.access(line, write)) {
        // Tag hit, but the fill may still be in flight (a late prefetch
        // or an MSHR merge): pay the remaining time and count it as a
        // demand miss.
        Cycle &ready = l1.fillReady[*slot];
        if (ready > now) {
            res.latency += ready - now;
            res.l1Miss = true;
            ++l1.misses;
            ++l1.mshrMerges;
            res.level = levelOf(ready - now, params_);
        } else {
            // The fill has completed; clear it, so a later access stamped
            // earlier (stores access at retire, loads at issue) does not
            // wait for it either.
            ready = 0;
        }
    } else {
        ++l1.misses;
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
    ++pfIssued_;
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

void
MemoryHierarchy::report(StatSet &stats) const
{
    stats.set("l1i.accesses", l1i_.accesses);
    stats.set("l1i.misses", l1i_.misses);
    stats.set("l1i.mshr_merges", l1i_.mshrMerges);
    stats.set("l1d.accesses", l1d_.accesses);
    stats.set("l1d.misses", l1d_.misses);
    stats.set("l1d.mshr_merges", l1d_.mshrMerges);
    stats.set("l2.accesses", l2Acc_);
    stats.set("l2.misses", l2Miss_);
    stats.set("llc.accesses", llcAcc_);
    stats.set("llc.misses", llcMiss_);
    stats.set("prefetch.issued", pfIssued_);
}

void
MemoryHierarchy::exportMetrics(obs::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    StatSet stats;
    report(stats);
    for (const auto &[name, value] : stats.entries())
        reg.setCounter(prefix + "." + name, value);
}

} // namespace trb
