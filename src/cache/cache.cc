#include "cache/cache.hh"

#include "common/logging.hh"

namespace trb
{

Cache::Cache(const CacheParams &params)
    : params_(params), ways_(params.ways)
{
    std::size_t lines = params.sizeBytes / kLineBytes;
    trb_assert(params.ways >= 1 && lines % params.ways == 0,
               "cache lines must divide into ways: ", params.name);
    sets_ = lines / params.ways;
    trb_assert((sets_ & (sets_ - 1)) == 0,
               "cache set count must be a power of two: ", params.name);
    setMask_ = sets_ - 1;
    tags_.assign(lines, kEmpty);
    dirty_.assign(lines, 0);
    if (params.policy == ReplPolicy::Lru)
        lru_.assign(lines, 0);
    else
        rrpv_.assign(lines, 3);
}

std::size_t
Cache::pickVictim(std::size_t base)
{
    const std::size_t end = base + ways_;
    for (std::size_t s = base; s < end; ++s)
        if (tags_[s] == kEmpty)
            return s;

    if (!lru_.empty()) {
        std::size_t victim = base;
        for (std::size_t s = base + 1; s < end; ++s)
            if (lru_[s] < lru_[victim])
                victim = s;
        return victim;
    }

    // SRRIP: evict the first line with maximal RRPV, aging as needed.
    for (;;) {
        for (std::size_t s = base; s < end; ++s)
            if (rrpv_[s] >= 3)
                return s;
        for (std::size_t s = base; s < end; ++s)
            ++rrpv_[s];
    }
}

Cache::Fill
Cache::insert(Addr addr, bool write, bool prefetched)
{
    ++insertions_;
    const Addr tag = lineNum(addr);
    const std::size_t slot = pickVictim((tag & setMask_) * ways_);
    const bool valid = tags_[slot] != kEmpty;
    const Fill fill{slot, valid ? tags_[slot] * kLineBytes : kNoVictim,
                    valid && dirty_[slot]};
    if (fill.dirtyVictim)
        ++writebacks_;
    tags_[slot] = tag;
    dirty_[slot] = write;
    if (lru_.empty())
        rrpv_[slot] = prefetched ? 3 : 2;
    else
        lru_[slot] = ++clock_;
    return fill;
}

bool
Cache::invalidate(Addr addr)
{
    std::optional<std::size_t> slot = find(addr);
    if (!slot)
        return false;
    bool dirty = dirty_[*slot];
    tags_[*slot] = kEmpty;
    dirty_[*slot] = 0;
    return dirty;
}

} // namespace trb
