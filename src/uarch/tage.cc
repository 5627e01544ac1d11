#include "uarch/tage.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace trb
{

TageScL::TageScL(const TageConfig &config) : cfg_(config)
{
    trb_assert(cfg_.numTables >= 2, "TAGE needs at least two tables");
    base_.assign(std::size_t{1} << cfg_.log2BaseEntries, SatCounter(2, 1));
    tables_.assign(cfg_.numTables,
                   std::vector<TaggedEntry>(std::size_t{1}
                                            << cfg_.log2Entries));

    // Geometric history lengths between min and max.
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
    }

    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        idxFold_.emplace_back(histLen_[t], cfg_.log2Entries);
        tagFold1_.emplace_back(histLen_[t], cfg_.tagBits);
        tagFold2_.emplace_back(histLen_[t], cfg_.tagBits - 1);
    }

    history_.assign(std::bit_ceil(histLen_.back() + 1), 0);
    histMask_ = history_.size() - 1;
    scTable_.assign(kScEntries, SignedSatCounter(6, 0));
    loopTable_.assign(kLoopEntries, LoopEntry{});
}

std::size_t
TageScL::baseIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg_.log2BaseEntries) - 1);
}

std::size_t
TageScL::taggedIndex(Addr pc, unsigned t) const
{
    std::size_t mask = (std::size_t{1} << cfg_.log2Entries) - 1;
    return ((pc >> 2) ^ (pc >> (2 + cfg_.log2Entries + t)) ^
            idxFold_[t].value()) &
           mask;
}

std::uint16_t
TageScL::taggedTag(Addr pc, unsigned t) const
{
    std::uint32_t mask = (1u << cfg_.tagBits) - 1;
    return static_cast<std::uint16_t>(
        ((pc >> 2) ^ tagFold1_[t].value() ^ (tagFold2_[t].value() << 1)) &
        mask);
}

TageScL::Prediction
TageScL::lookup(Addr pc)
{
    Prediction p;
    p.taken = base_[baseIndex(pc)].taken();
    p.altTaken = p.taken;

    for (int t = static_cast<int>(cfg_.numTables) - 1; t >= 0; --t) {
        std::size_t idx = taggedIndex(pc, static_cast<unsigned>(t));
        const TaggedEntry &e = tables_[static_cast<unsigned>(t)][idx];
        if (e.tag != taggedTag(pc, static_cast<unsigned>(t)))
            continue;
        if (p.provider < 0) {
            p.provider = t;
            p.providerIndex = idx;
        } else {
            p.alt = t;
            p.altIndex = idx;
            break;
        }
    }

    if (p.provider >= 0) {
        const TaggedEntry &prov =
            tables_[static_cast<unsigned>(p.provider)][p.providerIndex];
        bool prov_taken = prov.ctr.taken();
        bool alt_taken =
            p.alt >= 0
                ? tables_[static_cast<unsigned>(p.alt)][p.altIndex]
                      .ctr.taken()
                : base_[baseIndex(pc)].taken();
        p.altTaken = alt_taken;
        p.weak = prov.ctr.confidence() == 0 && prov.useful.value() == 0;
        p.taken = (p.weak && useAltOnNa_.positive()) ? alt_taken
                                                     : prov_taken;
    }
    p.tageTaken = p.taken;
    return p;
}

bool
TageScL::loopPredict(Addr pc, bool &prediction, bool &high_confidence)
{
    const LoopEntry &e = loopTable_[(pc >> 2) & (kLoopEntries - 1)];
    std::uint16_t tag = static_cast<std::uint16_t>((pc >> 10) & 0xffff);
    if (!e.valid || e.tag != tag || e.tripCount == 0)
        return false;
    prediction = (e.currentIter + 1) != e.tripCount;
    high_confidence = e.confidence.saturatedHigh();
    return true;
}

void
TageScL::loopUpdate(Addr pc, bool taken)
{
    LoopEntry &e = loopTable_[(pc >> 2) & (kLoopEntries - 1)];
    std::uint16_t tag = static_cast<std::uint16_t>((pc >> 10) & 0xffff);
    if (!e.valid || e.tag != tag) {
        // Adopt the slot lazily (no useful bits in the lite version).
        e = LoopEntry{};
        e.valid = true;
        e.tag = tag;
    }
    if (taken) {
        if (e.currentIter < 0xfffe)
            ++e.currentIter;
        return;
    }
    // Loop exit: does the trip count repeat?
    std::uint16_t trips = e.currentIter + 1;
    if (e.tripCount == trips) {
        e.confidence.increment();
    } else {
        e.tripCount = trips;
        e.confidence = SatCounter(3, 0);
    }
    e.currentIter = 0;
}

bool
TageScL::predict(Addr pc)
{
    last_ = lookup(pc);

    if (cfg_.useLoopPredictor) {
        bool loop_pred = false, confident = false;
        if (loopPredict(pc, loop_pred, confident) && confident) {
            last_.loopUsed = true;
            last_.loopPrediction = loop_pred;
            last_.taken = loop_pred;
        }
    }

    if (cfg_.useStatisticalCorrector && !last_.loopUsed) {
        // Consult the corrector when the TAGE prediction is weak.
        std::size_t idx = ((pc >> 2) ^ (idxFold_.front().value() * 3)) &
                          (kScEntries - 1);
        last_.scIndex = idx;
        bool provider_weak =
            last_.provider < 0 ||
            tables_[static_cast<unsigned>(last_.provider)]
                    [last_.providerIndex]
                        .ctr.confidence() == 0;
        const SignedSatCounter &sc = scTable_[idx];
        if (provider_weak && std::abs(sc.value()) > 8) {
            last_.scUsed = true;
            last_.taken = sc.positive();
        }
    }

    return last_.taken;
}

void
TageScL::updateHistories(Addr pc, bool taken)
{
    std::uint8_t bit = taken ? 1 : 0;
    (void)pc;

    // Evicted bits must be read before the head moves.
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        std::uint8_t ev =
            history_[(histHead_ - (histLen_[t] - 1)) & histMask_];
        idxFold_[t].update(bit, ev);
        tagFold1_[t].update(bit, ev);
        tagFold2_[t].update(bit, ev);
    }
    histHead_ = (histHead_ + 1) & histMask_;
    history_[histHead_] = bit;
}

void
TageScL::update(Addr pc, bool taken)
{
    const Prediction &p = last_;
    bool tage_correct = p.tageTaken == taken;

    if (cfg_.useStatisticalCorrector)
        scTable_[p.scIndex].update(taken);
    if (cfg_.useLoopPredictor)
        loopUpdate(pc, taken);

    if (p.provider >= 0) {
        TaggedEntry &prov =
            tables_[static_cast<unsigned>(p.provider)][p.providerIndex];

        if (p.weak && prov.ctr.taken() != p.altTaken)
            useAltOnNa_.update(p.altTaken == taken);

        prov.ctr.update(taken);
        if (prov.ctr.taken() != p.altTaken)
            prov.useful.update(prov.ctr.taken() == taken);

        if (p.alt < 0 && p.weak)
            base_[baseIndex(pc)].update(taken);
        else if (p.alt >= 0 && p.weak)
            tables_[static_cast<unsigned>(p.alt)][p.altIndex].ctr.update(
                taken);
        ++providerHits_;
    } else {
        base_[baseIndex(pc)].update(taken);
    }

    // Allocate a longer-history entry on a TAGE misprediction.
    if (!tage_correct &&
        p.provider < static_cast<int>(cfg_.numTables) - 1) {
        unsigned start = static_cast<unsigned>(p.provider + 1);
        // Randomise the first candidate table a little (classic TAGE).
        if (start + 1 < cfg_.numTables && rng_.chance(0.33))
            ++start;
        bool allocated = false;
        for (unsigned t = start; t < cfg_.numTables && !allocated; ++t) {
            std::size_t idx = taggedIndex(pc, t);
            TaggedEntry &e = tables_[t][idx];
            if (e.useful.value() == 0) {
                e.tag = taggedTag(pc, t);
                e.ctr = SatCounter(cfg_.ctrBits,
                                   taken ? (1u << (cfg_.ctrBits - 1))
                                         : (1u << (cfg_.ctrBits - 1)) - 1);
                e.useful = SatCounter(2, 0);
                allocated = true;
            }
        }
        if (!allocated) {
            // Pressure: age the usefulness of the candidates.
            for (unsigned t = start; t < cfg_.numTables; ++t)
                tables_[t][taggedIndex(pc, t)].useful.decrement();
        }
    }

    updateHistories(pc, taken);
}

} // namespace trb
