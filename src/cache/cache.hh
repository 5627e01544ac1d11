/**
 * @file
 * A set-associative cache tag array with pluggable replacement (LRU or
 * SRRIP).  Purely structural: hit/miss/insert/evict bookkeeping; the
 * hierarchy (hierarchy.hh) owns latencies and miss handling.
 *
 * A line lives in a *slot* (set * ways + way) for as long as it is
 * resident, and lookups return that slot.  The hierarchy keeps per-line
 * state of its own in arrays indexed by slot: the L1s' fill-ready
 * cycles, which are their MSHR state.  Each set's tags are contiguous
 * (an empty slot holds a sentinel tag), and the replacement state the
 * policy needs sits in its own array, so a lookup scans one or two host
 * cache lines.
 */

#ifndef TRB_CACHE_CACHE_HH
#define TRB_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.hh"
#include "common/types.hh"

namespace trb
{

/** Replacement policies available to Cache. */
enum class ReplPolicy : std::uint8_t
{
    Lru,
    Srrip,
};

/** Structural parameters of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    Cycle latency = 4;              //!< added cycles when this level hits
    ReplPolicy policy = ReplPolicy::Lru;
};

/** Tag-array cache with LRU/SRRIP replacement. */
class Cache
{
  public:
    /** The victim insert() reports when the slot it took was empty. */
    static constexpr Addr kNoVictim = ~Addr{0};

    explicit Cache(const CacheParams &params);

    /**
     * Demand access to the line containing @p addr.
     * @return the hit slot (recency/RRPV updated), or nothing on a miss
     */
    std::optional<std::size_t>
    access(Addr addr, bool write)
    {
        ++accesses_;
        std::optional<std::size_t> slot = find(addr);
        if (!slot) {
            ++misses_;
            return slot;
        }
        if (lru_.empty())
            rrpv_[*slot] = 0;
        else
            lru_[*slot] = ++clock_;
        dirty_[*slot] |= write;
        return slot;
    }

    /** The slot holding the line, if present (no replacement update). */
    std::optional<std::size_t>
    find(Addr addr) const
    {
        // A line sits in at most one way, so the scan can run over the
        // whole set without an early exit: selects, not host branches
        // that mispredict on every hit way.
        const Addr tag = lineNum(addr);
        const std::size_t base = (tag & setMask_) * ways_;
        std::size_t hit = kNoSlot;
        for (std::size_t s = base; s < base + ways_; ++s)
            hit = tags_[s] == tag ? s : hit;
        if (hit == kNoSlot)
            return std::nullopt;
        return hit;
    }

    /** True if the line is present (no replacement state update). */
    bool probe(Addr addr) const { return find(addr).has_value(); }

    /** Where insert() put a line and what it displaced. */
    struct Fill
    {
        std::size_t slot;   //!< the slot the line now occupies
        Addr victim;        //!< line address evicted, kNoVictim if none
        bool dirtyVictim;   //!< the victim was dirty (writeback needed)
    };

    /**
     * Insert the line containing @p addr, which the caller knows is
     * absent (it has just missed or probed it): the line is not looked
     * up again.
     * @param prefetched marks SRRIP distant-reuse insertion
     */
    Fill insert(Addr addr, bool write, bool prefetched);

    /** Invalidate the line if present; returns true if it was dirty. */
    bool invalidate(Addr addr);

    const CacheParams &params() const { return params_; }
    std::size_t numSets() const { return sets_; }
    /** Slots in the array: every slot index is below this. */
    std::size_t numSlots() const { return tags_.size(); }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    /** Tag of an empty slot (no line number is all ones). */
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    std::size_t pickVictim(std::size_t base);

    CacheParams params_;
    std::size_t ways_;
    std::size_t sets_;
    std::size_t setMask_;
    AlignedVector<Addr> tags_;          //!< line numbers, kEmpty if none
    AlignedVector<std::uint8_t> dirty_;
    AlignedVector<std::uint64_t> lru_;  //!< recency stamps (LRU only)
    AlignedVector<std::uint8_t> rrpv_;  //!< re-reference (SRRIP only)
    std::uint64_t clock_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace trb

#endif // TRB_CACHE_CACHE_HH
