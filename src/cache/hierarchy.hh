/**
 * @file
 * The four-level memory hierarchy (L1I, L1D, shared L2, LLC, DRAM) with
 * latency-aware miss handling: a miss starts an in-flight fill that
 * becomes usable at now + latency, and demand accesses that land on an
 * in-flight line pay only the remaining time (an MSHR-hit).  Data
 * prefetchers (ip-stride at L1D, next-line at L2) and the instruction
 * prefetcher hook issue non-demand fills through the same machinery.
 *
 * The MSHR state lives in the L1 tag arrays: a fill installs its line
 * at once and stamps the line's slot with the cycle the data arrives.
 * An outstanding fill is therefore always a resident line, an eviction
 * retires its victim's fill with the slot, and there is no separate
 * in-flight table to look up, bound or keep consistent.
 */

#ifndef TRB_CACHE_HIERARCHY_HH
#define TRB_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "common/aligned.hh"
#include "common/param_list.hh"
#include "common/types.hh"

namespace trb
{

/** Parameters of the whole hierarchy. */
struct HierarchyParams
{
#define TRB_HIERARCHY_PARAMS(X)                                           \
    X(CacheParams, l1i, "l1i", "L1I", 32 * 1024, 8, 4, ReplPolicy::Lru)   \
    X(CacheParams, l1d, "l1d", "L1D", 48 * 1024, 12, 5, ReplPolicy::Lru)  \
    X(CacheParams, l2, "l2", "L2", 512 * 1024, 8, 10, ReplPolicy::Lru)    \
    X(CacheParams, llc, "llc", "LLC", 2 * 1024 * 1024, 16, 24,            \
      ReplPolicy::Srrip)                                                  \
    X(Cycle, dramLatency, "dram", 180)                                    \
    /** The paper's Icelake-like L1D prefetch. */                         \
    X(bool, l1dIpStride, "l1dpf", true)                                   \
    /** ... and its L2 next-line companion. */                            \
    X(bool, l2NextLine, "l2pf", true)
    TRB_PARAM_FIELDS(TRB_HIERARCHY_PARAMS)
};

/**
 * The hierarchy's counters; misses are per-level demand misses.  This
 * is their one declaration: SimStats carries them as its base, so the
 * core takes all of them in one assignment, and a new counter needs
 * only this struct, the code that counts it and SimStats' field list.
 */
struct HierarchyCounters
{
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0;
    std::uint64_t prefetchesIssued = 0;
    /** Demand accesses that merged with an in-flight L1I / L1D fill. */
    std::uint64_t l1iMshrMerges = 0, l1dMshrMerges = 0;
};

/** What a demand access is. */
enum class AccessKind : std::uint8_t
{
    Instr,
    Load,
    Store,
};

/** Demand access outcome. */
struct AccessResult
{
    Cycle latency = 0;      //!< cycles until the data is usable
    unsigned level = 1;     //!< 1..3 = cache level that hit, 4 = DRAM
    bool l1Miss = false;
};

/** The memory hierarchy. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Demand access at cycle @p now. @p ip trains data prefetchers. */
    AccessResult access(AccessKind kind, Addr addr, Addr ip, Cycle now);

    /**
     * Instruction prefetch into the L1I (for instruction prefetchers).
     * @return true if a fill was started (not already present/in-flight).
     */
    bool prefetchInstr(Addr addr, Cycle now);

    /**
     * True if the line is in the L1I and its fill, if any, has completed
     * by @p now.  A pure query: unlike a demand hit it leaves a
     * completed fill's stamp in place.
     */
    bool probeL1I(Addr addr, Cycle now) const;

    const HierarchyCounters &counters() const { return counters_; }

  private:
    /** An L1: its tag array and the MSHR state in it. */
    struct L1
    {
        explicit L1(const CacheParams &params)
            : tags(params), fillReady(tags.numSlots(), 0)
        {}

        Cache tags;
        /** Per slot: the cycle its line's fill completes, 0 = none. */
        AlignedVector<Cycle> fillReady;
    };

    /**
     * Walk the shared levels (L2, LLC, DRAM) for a line that missed an
     * L1.  Counts demand statistics when @p demand and fills the shared
     * levels on the way back.
     * @return cumulative latency beyond the L1 access.
     */
    Cycle walkShared(Addr line, bool write, bool demand, bool prefetched);

    /** Fill a line absent from @p l1; returns the data-ready delay. */
    Cycle fillL1(L1 &l1, Addr line, bool write, bool demand,
                 bool prefetched, Cycle now);

    /** Prefetch into @p l1 unless the line is there already. */
    bool prefetchL1(L1 &l1, Addr addr, Cycle now);

    HierarchyParams params_;
    L1 l1i_;
    L1 l1d_;
    Cache l2_;
    Cache llc_;

    IpStridePrefetcher l1dStride_;
    std::vector<Addr> pfScratch_;   //!< l1dStride_'s candidates

    HierarchyCounters counters_;
};

} // namespace trb

#endif // TRB_CACHE_HIERARCHY_HH
