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
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace trb
{

/** Parameters of the whole hierarchy. */
struct HierarchyParams
{
    CacheParams l1i{"L1I", 32 * 1024, 8, 4, ReplPolicy::Lru};
    CacheParams l1d{"L1D", 48 * 1024, 12, 5, ReplPolicy::Lru};
    CacheParams l2{"L2", 512 * 1024, 8, 10, ReplPolicy::Lru};
    CacheParams llc{"LLC", 2 * 1024 * 1024, 16, 24, ReplPolicy::Srrip};
    Cycle dramLatency = 180;
    bool l1dIpStride = true;    //!< the paper's Icelake-like L1D prefetch
    bool l2NextLine = true;     //!< ... and its L2 next-line companion
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

    /// @name Demand statistics (misses are per-level demand misses).
    /// @{
    std::uint64_t l1iAccesses() const { return l1i_.accesses; }
    std::uint64_t l1iMisses() const { return l1i_.misses; }
    std::uint64_t l1dAccesses() const { return l1d_.accesses; }
    std::uint64_t l1dMisses() const { return l1d_.misses; }
    std::uint64_t l2Accesses() const { return l2Acc_; }
    std::uint64_t l2Misses() const { return l2Miss_; }
    std::uint64_t llcAccesses() const { return llcAcc_; }
    std::uint64_t llcMisses() const { return llcMiss_; }
    std::uint64_t prefetchesIssued() const { return pfIssued_; }
    /** Demand accesses that merged with an in-flight L1I fill. */
    std::uint64_t l1iMshrMerges() const { return l1i_.mshrMerges; }
    /** Demand accesses that merged with an in-flight L1D fill. */
    std::uint64_t l1dMshrMerges() const { return l1d_.mshrMerges; }
    /// @}

    /** Dump every counter into a StatSet. */
    void report(StatSet &stats) const;

    /**
     * Register every hierarchy counter under @p prefix in a metrics
     * registry ("<prefix>.l1i.accesses", "<prefix>.l1i.mshr_merges", ...).
     */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const std::string &prefix = "cache") const;

  private:
    /** An L1: its tag array, the MSHR state in it and its counters. */
    struct L1
    {
        explicit L1(const CacheParams &params)
            : tags(params), fillReady(tags.numSlots(), 0)
        {}

        Cache tags;
        /** Per slot: the cycle its line's fill completes, 0 = none. */
        std::vector<Cycle> fillReady;
        std::uint64_t accesses = 0, misses = 0, mshrMerges = 0;
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

    std::uint64_t l2Acc_ = 0, l2Miss_ = 0;
    std::uint64_t llcAcc_ = 0, llcMiss_ = 0;
    std::uint64_t pfIssued_ = 0;
};

} // namespace trb

#endif // TRB_CACHE_HIERARCHY_HH
