#include "uarch/ittage.hh"

#include "common/logging.hh"

namespace trb
{

Ittage::Ittage(const IttageConfig &config)
    : cfg_(config),
      hist_(geometricHistoryLengths(cfg_.numTables, cfg_.minHistory,
                                    cfg_.maxHistory),
            {cfg_.log2Entries, cfg_.tagBits}),
      slot_(cfg_.numTables), tag_(cfg_.numTables)
{
    trb_assert(cfg_.numTables >= 2, "ITTAGE needs at least two tables");
    base_.assign(std::size_t{1} << cfg_.log2BaseEntries, 0);
    tables_.assign(std::size_t{cfg_.numTables} << cfg_.log2Entries,
                   Entry{});
}

std::size_t
Ittage::baseIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg_.log2BaseEntries) - 1);
}

Addr
Ittage::predict(Addr pc)
{
    const std::size_t idx_mask = (std::size_t{1} << cfg_.log2Entries) - 1;
    const std::uint32_t tag_mask = (1u << cfg_.tagBits) - 1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        slot_[t] = (std::size_t{t} << cfg_.log2Entries) +
                   (((pc >> 2) ^ (pc >> (3 + t)) ^ hist_.fold(kIdxFold, t)) &
                    idx_mask);
        tag_[t] = static_cast<std::uint16_t>(
            ((pc >> 2) ^ (hist_.fold(kTagFold, t) * 5)) & tag_mask);
    }

    last_ = Prediction{};
    last_.target = base_[baseIndex(pc)];
    for (int t = static_cast<int>(cfg_.numTables) - 1; t >= 0; --t) {
        const std::size_t slot = slot_[static_cast<unsigned>(t)];
        const Entry &e = tables_[slot];
        if (e.tag == tag_[static_cast<unsigned>(t)] && e.target != 0) {
            last_.provider = t;
            last_.providerIndex = slot;
            last_.target = e.target;
            break;
        }
    }
    return last_.target;
}

void
Ittage::pushHistoryBit(bool bit)
{
    hist_.push(bit);
}

void
Ittage::update(Addr pc, Addr target)
{
    bool correct = last_.target == target;

    if (last_.provider >= 0) {
        Entry &e = tables_[last_.providerIndex];
        if (correct) {
            e.confidence.increment();
            e.useful.increment();
        } else {
            if (e.confidence.value() == 0)
                e.target = target;
            else
                e.confidence.decrement();
        }
    }
    base_[baseIndex(pc)] = target;

    if (!correct &&
        last_.provider < static_cast<int>(cfg_.numTables) - 1) {
        unsigned start = static_cast<unsigned>(last_.provider + 1);
        if (start + 1 < cfg_.numTables && rng_.chance(0.33))
            ++start;
        bool allocated = false;
        for (unsigned t = start; t < cfg_.numTables && !allocated; ++t) {
            Entry &e = tables_[slot_[t]];
            if (e.useful.value() == 0) {
                e.tag = tag_[t];
                e.target = target;
                e.confidence = SatCounter(2, 0);
                allocated = true;
            }
        }
        if (!allocated)
            for (unsigned t = start; t < cfg_.numTables; ++t)
                tables_[slot_[t]].useful.decrement();
    }

    // Fold the taken-ness and a hash of the target into the history so
    // distinct targets produce distinct contexts.
    std::uint64_t h = target >> 2;
    h = splitmix64(h);
    pushHistoryBit(true);
    pushHistoryBit(h & 1);
    pushHistoryBit((h >> 1) & 1);
}

} // namespace trb
