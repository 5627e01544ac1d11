#include "uarch/ittage.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace trb
{

Ittage::Ittage(const IttageConfig &config) : cfg_(config)
{
    trb_assert(cfg_.numTables >= 2, "ITTAGE needs at least two tables");
    base_.assign(std::size_t{1} << cfg_.log2BaseEntries, 0);
    tables_.assign(cfg_.numTables,
                   std::vector<Entry>(std::size_t{1} << cfg_.log2Entries));

    histLen_.resize(cfg_.numTables);
    double ratio = std::pow(static_cast<double>(cfg_.maxHistory) /
                                cfg_.minHistory,
                            1.0 / (cfg_.numTables - 1));
    double len = cfg_.minHistory;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        histLen_[t] = std::max<unsigned>(1, static_cast<unsigned>(len + 0.5));
        if (t > 0 && histLen_[t] <= histLen_[t - 1])
            histLen_[t] = histLen_[t - 1] + 1;
        len *= ratio;
        idxFold_.emplace_back(histLen_[t], cfg_.log2Entries);
        tagFold_.emplace_back(histLen_[t], cfg_.tagBits);
    }
    history_.assign(std::bit_ceil(histLen_.back() + 1), 0);
    histMask_ = history_.size() - 1;
}

std::size_t
Ittage::baseIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg_.log2BaseEntries) - 1);
}

std::size_t
Ittage::taggedIndex(Addr pc, unsigned t) const
{
    std::size_t mask = (std::size_t{1} << cfg_.log2Entries) - 1;
    return ((pc >> 2) ^ (pc >> (3 + t)) ^ idxFold_[t].value()) & mask;
}

std::uint16_t
Ittage::taggedTag(Addr pc, unsigned t) const
{
    return static_cast<std::uint16_t>(
        ((pc >> 2) ^ (tagFold_[t].value() * 5)) &
        ((1u << cfg_.tagBits) - 1));
}

Addr
Ittage::predict(Addr pc)
{
    last_ = Prediction{};
    last_.target = base_[baseIndex(pc)];
    for (int t = static_cast<int>(cfg_.numTables) - 1; t >= 0; --t) {
        std::size_t idx = taggedIndex(pc, static_cast<unsigned>(t));
        Entry &e = tables_[static_cast<unsigned>(t)][idx];
        if (e.tag == taggedTag(pc, static_cast<unsigned>(t)) &&
            e.target != 0) {
            last_.provider = t;
            last_.providerIndex = idx;
            last_.target = e.target;
            break;
        }
    }
    return last_.target;
}

void
Ittage::pushHistoryBit(bool bit)
{
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        std::uint8_t ev =
            history_[(histHead_ - (histLen_[t] - 1)) & histMask_];
        idxFold_[t].update(bit, ev);
        tagFold_[t].update(bit, ev);
    }
    histHead_ = (histHead_ + 1) & histMask_;
    history_[histHead_] = bit ? 1 : 0;
}

void
Ittage::update(Addr pc, Addr target)
{
    bool correct = last_.target == target;

    if (last_.provider >= 0) {
        Entry &e = tables_[static_cast<unsigned>(last_.provider)]
                          [last_.providerIndex];
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
            std::size_t idx = taggedIndex(pc, t);
            Entry &e = tables_[t][idx];
            if (e.useful.value() == 0) {
                e.tag = taggedTag(pc, t);
                e.target = target;
                e.confidence = SatCounter(2, 0);
                allocated = true;
            }
        }
        if (!allocated)
            for (unsigned t = start; t < cfg_.numTables; ++t)
                tables_[t][taggedIndex(pc, t)].useful.decrement();
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
