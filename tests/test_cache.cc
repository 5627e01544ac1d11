/**
 * @file
 * Tests for the cache substrate: tag-array behaviour under both
 * replacement policies (including a differential test against a
 * line-array reference), hierarchy latency composition, the MSHR state
 * kept in the L1 tag arrays, and the data prefetchers.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "cache/prefetcher.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace trb
{
namespace
{

CacheParams
tiny(const char *name, std::size_t bytes, unsigned ways,
     ReplPolicy policy = ReplPolicy::Lru)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = bytes;
    p.ways = ways;
    p.policy = policy;
    return p;
}

TEST(Cache, HitAfterInsert)
{
    Cache c(tiny("t", 4096, 4));
    EXPECT_FALSE(c.access(0x1000, false));
    Cache::Fill f = c.insert(0x1000, false, false);
    EXPECT_EQ(c.find(0x1000), f.slot);
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103f, false));   // same line
    EXPECT_FALSE(c.access(0x1040, false));  // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 4u);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 2 ways; lines mapping to set 0 stride by 4*64.
    Cache c(tiny("t", 8 * 64, 2));
    ASSERT_EQ(c.numSets(), 4u);
    Addr stride = 4 * 64;
    c.insert(0x0, false, false);
    c.insert(stride, false, false);
    EXPECT_TRUE(c.access(0x0, false));      // refresh line 0
    EXPECT_EQ(c.insert(2 * stride, false, false).victim,
              stride);                      // LRU was the middle one
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(stride));
}

TEST(Cache, DirtyWritebackSignalled)
{
    Cache c(tiny("t", 2 * 64, 1));
    Cache::Fill first = c.insert(0x0, true, false);     // dirty, set 0
    EXPECT_EQ(first.victim, Cache::kNoVictim);          // the set was empty
    EXPECT_FALSE(first.dirtyVictim);
    Cache::Fill f = c.insert(2 * 64, false, false);     // same set
    EXPECT_TRUE(f.dirtyVictim);
    EXPECT_EQ(f.victim, 0u);                // line 0 is a real victim
    EXPECT_EQ(f.slot, first.slot);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, WriteMarksDirty)
{
    Cache c(tiny("t", 2 * 64, 1));
    c.insert(0x0, false, false);
    EXPECT_TRUE(c.access(0x0, true));       // write hit dirties the line
    EXPECT_TRUE(c.insert(2 * 64, false, false).dirtyVictim);
}

TEST(Cache, SrripPrefetchInsertedDistant)
{
    // SRRIP: prefetched lines insert at distant RRPV and get evicted
    // before demand lines that have been reused.
    Cache c(tiny("t", 4 * 64, 4, ReplPolicy::Srrip));
    c.insert(0 * 4 * 64, false, false);
    c.access(0, false);                     // promote to RRPV 0
    c.insert(1 * 4 * 64, false, true);      // prefetch: RRPV 3
    c.insert(2 * 4 * 64, false, false);
    c.insert(3 * 4 * 64, false, false);
    EXPECT_EQ(c.insert(4 * 4 * 64, false, false).victim,  // needs one
              1u * 4 * 64);                 // the prefetched line goes
    EXPECT_TRUE(c.probe(0));
}

TEST(Cache, InvalidateReportsDirty)
{
    Cache c(tiny("t", 4096, 4));
    c.insert(0x1000, true, false);
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000));
}

// ---------------------------------------------------------------------
// Differential test: the flat tag arrays against the line-array cache
// they replaced, kept here verbatim as the reference.

/** The original line-array cache (victim 0 means "none or line 0"). */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params) : params_(params)
    {
        std::size_t lines = params.sizeBytes / kLineBytes;
        trb_assert(params.ways >= 1 && lines % params.ways == 0,
                   "cache lines must divide into ways: ", params.name);
        sets_ = lines / params.ways;
        trb_assert((sets_ & (sets_ - 1)) == 0,
                   "cache set count must be a power of two: ",
                   params.name);
        setMask_ = sets_ - 1;
        lines_.assign(lines, Line{});
    }

    bool
    access(Addr addr, bool write)
    {
        ++accesses_;
        Line *line = find(addr);
        if (!line) {
            ++misses_;
            return false;
        }
        line->lru = ++clock_;
        line->rrpv = 0;
        line->dirty |= write;
        return true;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    bool
    insert(Addr addr, bool write, bool prefetched, Addr &victim)
    {
        victim = 0;
        Line *existing = find(addr);
        if (existing) {
            existing->dirty |= write;
            return false;
        }
        ++insertions_;
        Line &line = pickVictim(setOf(addr));
        bool dirty_evict = line.valid && line.dirty;
        if (line.valid)
            victim = line.tag * kLineBytes;
        if (dirty_evict)
            ++writebacks_;
        line.valid = true;
        line.tag = tagOf(addr);
        line.dirty = write;
        line.lru = ++clock_;
        line.rrpv = prefetched ? 3 : 2;
        return dirty_evict;
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(addr);
        if (!line)
            return false;
        bool dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        return dirty;
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
        std::uint8_t rrpv = 3;
    };

    std::size_t setOf(Addr addr) const { return lineNum(addr) & setMask_; }
    Addr tagOf(Addr addr) const { return lineNum(addr); }

    Line *
    find(Addr addr)
    {
        Line *set = &lines_[setOf(addr) * params_.ways];
        for (unsigned w = 0; w < params_.ways; ++w)
            if (set[w].valid && set[w].tag == tagOf(addr))
                return &set[w];
        return nullptr;
    }

    Line &
    pickVictim(std::size_t set)
    {
        Line *ways = &lines_[set * params_.ways];
        for (unsigned w = 0; w < params_.ways; ++w)
            if (!ways[w].valid)
                return ways[w];
        if (params_.policy == ReplPolicy::Lru) {
            Line *victim = &ways[0];
            for (unsigned w = 1; w < params_.ways; ++w)
                if (ways[w].lru < victim->lru)
                    victim = &ways[w];
            return *victim;
        }
        for (;;) {
            for (unsigned w = 0; w < params_.ways; ++w)
                if (ways[w].rrpv >= 3)
                    return ways[w];
            for (unsigned w = 0; w < params_.ways; ++w)
                ++ways[w].rrpv;
        }
    }

    CacheParams params_;
    std::size_t sets_;
    std::size_t setMask_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t writebacks_ = 0;
};

/**
 * Drive a flat Cache and the reference with one random operation
 * stream (access, probe, insert of an absent line, invalidate) over a
 * pool of lines that overflows every set, line 0 included, and compare
 * every observable result.
 */
void
runDifferential(ReplPolicy policy, std::uint64_t seed)
{
    const CacheParams p = tiny("diff", 16 * 64, 4, policy);   // 4 sets
    Cache flat(p);
    RefCache ref(p);
    Rng rng(seed);
    for (int op = 0; op < 20000; ++op) {
        const Addr addr = rng.below(48) * kLineBytes + rng.below(64);
        const bool write = rng.chance(0.3);
        const std::uint64_t kind = rng.below(10);
        SCOPED_TRACE(::testing::Message() << "op " << op << " addr 0x"
                                          << std::hex << addr);
        if (kind < 4) {
            std::optional<std::size_t> slot = flat.access(addr, write);
            ASSERT_EQ(slot.has_value(), ref.access(addr, write));
            if (slot) {
                ASSERT_EQ(flat.find(addr), slot);
            }
        } else if (kind < 6) {
            ASSERT_EQ(flat.probe(addr), ref.probe(addr));
        } else if (kind < 9) {
            // Cache::insert takes absent lines only.
            if (flat.probe(addr))
                continue;
            const bool prefetched = rng.chance(0.5);
            Addr rv = 0;
            const bool r_dirty = ref.insert(addr, write, prefetched, rv);
            Cache::Fill f = flat.insert(addr, write, prefetched);
            ASSERT_EQ(f.dirtyVictim, r_dirty);
            ASSERT_EQ(f.victim == Cache::kNoVictim ? 0 : f.victim, rv);
            ASSERT_EQ(flat.find(addr), f.slot);
        } else {
            ASSERT_EQ(flat.invalidate(addr), ref.invalidate(addr));
        }
    }
    EXPECT_EQ(flat.accesses(), ref.accesses());
    EXPECT_EQ(flat.misses(), ref.misses());
    EXPECT_EQ(flat.insertions(), ref.insertions());
    EXPECT_EQ(flat.writebacks(), ref.writebacks());
    EXPECT_GT(flat.writebacks(), 100u);     // the stream did evict
}

TEST(CacheDifferential, LruMatchesLineArrayReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential(ReplPolicy::Lru, seed);
}

TEST(CacheDifferential, SrripMatchesLineArrayReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runDifferential(ReplPolicy::Srrip, seed);
}

// ---------------------------------------------------------------------

HierarchyParams
smallHierarchy()
{
    HierarchyParams p;
    p.l1i = tiny("L1I", 4 * 1024, 4);
    p.l1i.latency = 4;
    p.l1d = tiny("L1D", 4 * 1024, 4);
    p.l1d.latency = 5;
    p.l2 = tiny("L2", 32 * 1024, 8);
    p.l2.latency = 10;
    p.llc = tiny("LLC", 256 * 1024, 16);
    p.llc.latency = 24;
    p.dramLatency = 180;
    p.l1dIpStride = false;
    p.l2NextLine = false;
    return p;
}

TEST(Hierarchy, LatencyComposition)
{
    MemoryHierarchy mh(smallHierarchy());
    // Cold: DRAM.
    auto r1 = mh.access(AccessKind::Load, 0x100000, 0x400000, 0);
    EXPECT_EQ(r1.latency, 5u + 10 + 24 + 180);
    EXPECT_EQ(r1.level, 4u);
    // Warm L1.
    auto r2 = mh.access(AccessKind::Load, 0x100000, 0x400000, 1000);
    EXPECT_EQ(r2.latency, 5u);
    EXPECT_EQ(r2.level, 1u);
    EXPECT_EQ(mh.counters().l1dMisses, 1u);
    EXPECT_EQ(mh.counters().l2Misses, 1u);
    EXPECT_EQ(mh.counters().llcMisses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    auto p = smallHierarchy();
    MemoryHierarchy mh(p);
    // Fill well past L1D capacity (4KB = 64 lines) but within L2.
    for (Addr a = 0; a < 256; ++a)
        mh.access(AccessKind::Load, 0x200000 + a * 64, 0x400000,
                  a * 1000);
    // The first line fell out of L1D but sits in L2.
    auto r = mh.access(AccessKind::Load, 0x200000, 0x400000, 10000000);
    EXPECT_EQ(r.latency, 5u + 10);
    EXPECT_EQ(r.level, 2u);
}

TEST(Hierarchy, InflightMergePaysRemainingLatency)
{
    MemoryHierarchy mh(smallHierarchy());
    auto r1 = mh.access(AccessKind::Load, 0x300000, 0x400000, 100);
    ASSERT_GT(r1.latency, 100u);
    // A second access 50 cycles later merges with the outstanding fill.
    auto r2 = mh.access(AccessKind::Load, 0x300040 - 64, 0x400004, 150);
    EXPECT_EQ(r2.latency, 5u + (100 + (r1.latency - 5) - 150));
    // Long after completion: plain hit.
    auto r3 = mh.access(AccessKind::Load, 0x300000, 0x400000, 100000);
    EXPECT_EQ(r3.latency, 5u);
}

TEST(Hierarchy, InstrAndDataPathsSeparate)
{
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Instr, 0x400000, 0, 0);
    EXPECT_EQ(mh.counters().l1iMisses, 1u);
    EXPECT_EQ(mh.counters().l1dMisses, 0u);
    auto r = mh.access(AccessKind::Instr, 0x400000, 0, 100000);
    EXPECT_EQ(r.latency, 4u);
    // The same line as data: L1D misses but L2 has it.
    auto rd = mh.access(AccessKind::Load, 0x400000, 0x1234, 200000);
    EXPECT_EQ(rd.latency, 5u + 10);
}

TEST(Hierarchy, InstrPrefetchHidesLatency)
{
    MemoryHierarchy mh(smallHierarchy());
    EXPECT_TRUE(mh.prefetchInstr(0x500000, 0));
    EXPECT_FALSE(mh.prefetchInstr(0x500000, 1));   // already in flight
    // Early demand: still pays the remaining fill time.
    auto r_early = mh.access(AccessKind::Instr, 0x500000, 0, 10);
    EXPECT_LT(r_early.latency, 4u + 10 + 24 + 180);
    // After the fill completes the line is a plain hit.
    auto r = mh.access(AccessKind::Instr, 0x500040 - 64, 0, 100000);
    EXPECT_EQ(r.latency, 4u);
    EXPECT_EQ(mh.counters().l1iMisses, 1u);   // the early demand still missed tags
}

TEST(Hierarchy, ProbeL1IRespectsInflight)
{
    MemoryHierarchy mh(smallHierarchy());
    EXPECT_FALSE(mh.probeL1I(0x600000, 0));
    mh.prefetchInstr(0x600000, 0);
    EXPECT_FALSE(mh.probeL1I(0x600000, 1));        // still in flight
    EXPECT_TRUE(mh.probeL1I(0x600000, 100000));    // fill done
}

TEST(Hierarchy, CompletedFillIsClearedForEarlierStampedAccesses)
{
    // Data-side time is not monotone: loads access at issue, stores at
    // retire.  A hit after a fill completed clears it, so a later access
    // stamped before the fill's end pays nothing; an uncleared fill
    // still charges its remainder.
    MemoryHierarchy mh(smallHierarchy());
    const Cycle beyond = 10 + 24 + 180;
    mh.access(AccessKind::Load, 0x300000, 0x400000, 100);
    EXPECT_EQ(mh.access(AccessKind::Load, 0x300000, 0x400000, 1000).latency,
              5u);
    AccessResult early =
        mh.access(AccessKind::Store, 0x300000, 0x400000, 150);
    EXPECT_EQ(early.latency, 5u);
    EXPECT_FALSE(early.l1Miss);

    mh.access(AccessKind::Load, 0x310000, 0x400000, 100);
    AccessResult merged =
        mh.access(AccessKind::Store, 0x310000, 0x400000, 150);
    EXPECT_EQ(merged.latency, 5u + (100 + beyond - 150));
    EXPECT_EQ(mh.counters().l1dMshrMerges, 1u);
}

TEST(Hierarchy, ProbeL1IDoesNotClearAFill)
{
    MemoryHierarchy mh(smallHierarchy());
    const Cycle beyond = 10 + 24 + 180;
    ASSERT_TRUE(mh.prefetchInstr(0x600000, 0));
    // A late query sees the fill as done but must not retire it ...
    EXPECT_TRUE(mh.probeL1I(0x600000, 100000));
    // ... so an earlier-stamped demand fetch still waits for it.
    AccessResult r = mh.access(AccessKind::Instr, 0x600000, 0, 10);
    EXPECT_EQ(r.latency, 4u + (beyond - 10));
    EXPECT_TRUE(r.l1Miss);
    EXPECT_EQ(mh.counters().l1iMshrMerges, 1u);
}

TEST(Hierarchy, MshrMergeCountsAndReportsItsLevel)
{
    MemoryHierarchy mh(smallHierarchy());
    const Cycle beyond = 10 + 24 + 180;     // ready at 100 + beyond
    mh.access(AccessKind::Load, 0x700000, 0x400000, 100);
    // Remaining 9 cycles: no more than an L2 hit would cost.
    AccessResult r = mh.access(AccessKind::Load, 0x700000, 0x400000,
                               100 + beyond - 9);
    EXPECT_EQ(r.latency, 5u + 9);
    EXPECT_EQ(r.level, 2u);
    EXPECT_TRUE(r.l1Miss);
    EXPECT_EQ(mh.counters().l1dMshrMerges, 1u);
    EXPECT_EQ(mh.counters().l1dMisses, 2u);          // a merge is a demand miss

    // Instruction side: a prefetch still 100 cycles out reads as DRAM.
    ASSERT_TRUE(mh.prefetchInstr(0x800000, 0));
    AccessResult ri = mh.access(AccessKind::Instr, 0x800000, 0, beyond - 100);
    EXPECT_EQ(ri.level, 4u);
    EXPECT_EQ(mh.counters().l1iMshrMerges, 1u);
    EXPECT_EQ(mh.counters().l1iMisses, 1u);
}

TEST(Hierarchy, LineZeroIsRefetchedAfterEviction)
{
    // Regression: "no victim" and "evicted line 0" used to share the
    // victim value 0, so line 0's fill outlived its eviction and a later
    // miss on line 0 returned without walking L2 or refilling the L1.
    MemoryHierarchy mh(smallHierarchy());
    const Addr set_stride = 16 * 64;        // 4 KiB, 4 ways: 16 sets
    mh.access(AccessKind::Load, 0x0, 0x400000, 0);
    for (Addr k = 1; k <= 4; ++k)           // four more lines in set 0
        mh.access(AccessKind::Load, k * set_stride, 0x400000, k * 1000);
    const std::uint64_t l2_before = mh.counters().l2Accesses;

    AccessResult again = mh.access(AccessKind::Load, 0x0, 0x400000, 10000);
    EXPECT_TRUE(again.l1Miss);
    EXPECT_EQ(again.latency, 5u + 10);      // L2 still holds it
    EXPECT_EQ(again.level, 2u);
    EXPECT_EQ(mh.counters().l2Accesses, l2_before + 1);
    AccessResult hit = mh.access(AccessKind::Load, 0x0, 0x400000, 20000);
    EXPECT_FALSE(hit.l1Miss);               // and the L1 has it again
    EXPECT_EQ(hit.latency, 5u);

    // Instruction side: an evicted line 0 whose old fill would still be
    // in flight can be prefetched again.
    ASSERT_TRUE(mh.prefetchInstr(0x0, 0));
    for (Addr k = 1; k <= 4; ++k)
        ASSERT_TRUE(mh.prefetchInstr(k * set_stride, k));
    EXPECT_FALSE(mh.probeL1I(0x0, 100000));
    EXPECT_TRUE(mh.prefetchInstr(0x0, 100));
    EXPECT_TRUE(mh.probeL1I(0x0, 100000));
}

TEST(Hierarchy, IpStridePrefetcherCutsMisses)
{
    auto base_params = smallHierarchy();
    MemoryHierarchy plain(base_params);
    auto pf_params = smallHierarchy();
    pf_params.l1dIpStride = true;
    MemoryHierarchy pf(pf_params);

    // One load instruction striding by 64B through 4 MiB.
    Cycle now = 0;
    for (Addr i = 0; i < 4096; ++i) {
        plain.access(AccessKind::Load, 0x1000000 + i * 64, 0x400100, now);
        pf.access(AccessKind::Load, 0x1000000 + i * 64, 0x400100, now);
        now += 300;   // far enough apart for fills to land
    }
    EXPECT_GT(pf.counters().prefetchesIssued, 1000u);
    EXPECT_LT(pf.counters().l1dMisses, plain.counters().l1dMisses / 4);
}

TEST(Hierarchy, NextLineHelpsSequentialInstrFootprint)
{
    auto base_params = smallHierarchy();
    MemoryHierarchy plain(base_params);
    auto pf_params = smallHierarchy();
    pf_params.l2NextLine = true;
    MemoryHierarchy pf(pf_params);

    // Loads marching sequentially through memory: next-line at L2 turns
    // most L2 misses into L2 hits.
    Cycle now = 0;
    for (Addr i = 0; i < 4096; ++i) {
        plain.access(AccessKind::Load, 0x2000000 + i * 64, 0x400200, now);
        pf.access(AccessKind::Load, 0x2000000 + i * 64, 0x400200, now);
        now += 300;
    }
    EXPECT_LT(pf.counters().l2Misses, plain.counters().l2Misses / 2);
}

TEST(Hierarchy, ReportContainsAllCounters)
{
    MemoryHierarchy mh(smallHierarchy());
    mh.access(AccessKind::Load, 0x1000, 0x400000, 0);
    // One cold demand load misses every level once; the L1I is idle.
    EXPECT_EQ(mh.counters().l1iAccesses, 0u);
    EXPECT_EQ(mh.counters().l1iMisses, 0u);
    EXPECT_EQ(mh.counters().l1dAccesses, 1u);
    EXPECT_EQ(mh.counters().l1dMisses, 1u);
    EXPECT_EQ(mh.counters().l2Accesses, 1u);
    EXPECT_EQ(mh.counters().l2Misses, 1u);
    EXPECT_EQ(mh.counters().llcAccesses, 1u);
    EXPECT_EQ(mh.counters().llcMisses, 1u);
}

TEST(IpStride, DetectsStrideAfterConfidence)
{
    IpStridePrefetcher pf(2);
    std::vector<Addr> out;
    for (int i = 0; i < 3; ++i) {
        out.clear();
        pf.observe(0x400100, 0x1000 + i * 256, out);
    }
    EXPECT_TRUE(out.empty());   // confidence still building
    out.clear();
    pf.observe(0x400100, 0x1000 + 3 * 256, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], lineAddr(0x1000 + 4 * 256));
    EXPECT_EQ(out[1], lineAddr(0x1000 + 5 * 256));
}

TEST(IpStride, NoPrefetchOnRandom)
{
    IpStridePrefetcher pf(2);
    std::vector<Addr> out;
    Addr addrs[] = {0x1000, 0x9000, 0x3000, 0xf000, 0x2000, 0xb000};
    for (Addr a : addrs)
        pf.observe(0x400100, a, out);
    EXPECT_TRUE(out.empty());
}

TEST(NextLine, AlwaysNextLine)
{
    EXPECT_EQ(NextLinePrefetcher::candidate(0x1234), lineAddr(0x1234) + 64);
    EXPECT_EQ(NextLinePrefetcher::candidate(0x1240), 0x1280u);
}

} // namespace
} // namespace trb
