#include "uarch/btb.hh"

#include "common/logging.hh"

namespace trb
{

Btb::Btb(std::size_t entries, unsigned ways) : ways_(ways)
{
    trb_assert(ways >= 1 && entries % ways == 0,
               "BTB entries must divide evenly into ways");
    std::size_t sets = entries / ways;
    trb_assert((sets & (sets - 1)) == 0, "BTB set count must be power of 2");
    setMask_ = sets - 1;
    tags_.assign(entries, kEmpty);
    payload_.assign(entries, Payload{});
}

BtbEntryView
Btb::lookup(Addr pc)
{
    ++lookups_;
    const Addr tag = tagOf(pc);
    const std::size_t base = setBase(pc);
    for (std::size_t s = base; s < base + ways_; ++s) {
        if (tags_[s] == tag) {
            Payload &p = payload_[s];
            p.lru = ++clock_;
            ++hits_;
            return {true, p.target, p.type};
        }
    }
    return {};
}

void
Btb::update(Addr pc, Addr target, BranchType type)
{
    // The way holding pc, else the first empty way, else the LRU way.
    // Ways are never invalidated, so the empty ones follow the full ones
    // and the scan can stop at the first empty way.
    const Addr tag = tagOf(pc);
    const std::size_t base = setBase(pc);
    std::size_t victim = base;
    for (std::size_t s = base; s < base + ways_; ++s) {
        if (tags_[s] == tag || tags_[s] == kEmpty) {
            victim = s;
            break;
        }
        if (payload_[s].lru < payload_[victim].lru)
            victim = s;
    }
    tags_[victim] = tag;
    payload_[victim] = {target, ++clock_, type};
}

} // namespace trb
