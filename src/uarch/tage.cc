#include "uarch/tage.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace trb
{

TageScL::TageScL(const TageConfig &config)
    : cfg_(config),
      hist_(geometricHistoryLengths(cfg_.numTables, cfg_.minHistory,
                                    cfg_.maxHistory),
            {cfg_.log2Entries, cfg_.tagBits, cfg_.tagBits - 1}),
      slot_(cfg_.numTables), tag_(cfg_.numTables)
{
    trb_assert(cfg_.numTables >= 2, "TAGE needs at least two tables");
    base_.assign(std::size_t{1} << cfg_.log2BaseEntries, SatCounter(2, 1));
    tables_.assign(std::size_t{cfg_.numTables} << cfg_.log2Entries,
                   TaggedEntry{});
    scTable_.assign(kScEntries, SignedSatCounter(6, 0));
    loopTable_.assign(kLoopEntries, LoopEntry{});
}

std::size_t
TageScL::baseIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg_.log2BaseEntries) - 1);
}

TageScL::Prediction
TageScL::lookup(Addr pc)
{
    const std::size_t idx_mask = (std::size_t{1} << cfg_.log2Entries) - 1;
    const std::uint32_t tag_mask = (1u << cfg_.tagBits) - 1;
    for (unsigned t = 0; t < cfg_.numTables; ++t) {
        slot_[t] = (std::size_t{t} << cfg_.log2Entries) +
                   (((pc >> 2) ^ (pc >> (2 + cfg_.log2Entries + t)) ^
                     hist_.fold(kIdxFold, t)) &
                    idx_mask);
        tag_[t] = static_cast<std::uint16_t>(
            ((pc >> 2) ^ hist_.fold(kTagFold1, t) ^
             (hist_.fold(kTagFold2, t) << 1)) &
            tag_mask);
    }

    Prediction p;
    p.taken = base_[baseIndex(pc)].taken();
    p.altTaken = p.taken;

    for (int t = static_cast<int>(cfg_.numTables) - 1; t >= 0; --t) {
        const std::size_t slot = slot_[static_cast<unsigned>(t)];
        if (tables_[slot].tag != tag_[static_cast<unsigned>(t)])
            continue;
        if (p.provider < 0) {
            p.provider = t;
            p.providerIndex = slot;
        } else {
            p.alt = t;
            p.altIndex = slot;
            break;
        }
    }

    if (p.provider >= 0) {
        const TaggedEntry &prov = tables_[p.providerIndex];
        bool prov_taken = prov.ctr.taken();
        bool alt_taken = p.alt >= 0 ? tables_[p.altIndex].ctr.taken()
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
        std::size_t idx = ((pc >> 2) ^ (hist_.fold(kIdxFold, 0) * 3)) &
                          (kScEntries - 1);
        last_.scIndex = idx;
        bool provider_weak =
            last_.provider < 0 ||
            tables_[last_.providerIndex].ctr.confidence() == 0;
        const SignedSatCounter &sc = scTable_[idx];
        if (provider_weak && std::abs(sc.value()) > 8) {
            last_.scUsed = true;
            last_.taken = sc.positive();
        }
    }

    return last_.taken;
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
        TaggedEntry &prov = tables_[p.providerIndex];

        if (p.weak && prov.ctr.taken() != p.altTaken)
            useAltOnNa_.update(p.altTaken == taken);

        prov.ctr.update(taken);
        if (prov.ctr.taken() != p.altTaken)
            prov.useful.update(prov.ctr.taken() == taken);

        if (p.alt < 0 && p.weak)
            base_[baseIndex(pc)].update(taken);
        else if (p.alt >= 0 && p.weak)
            tables_[p.altIndex].ctr.update(taken);
        ++providerHits_;
    } else {
        base_[baseIndex(pc)].update(taken);
    }

    // Allocate a longer-history entry on a TAGE misprediction, in the
    // slots predict() looked up.
    if (!tage_correct &&
        p.provider < static_cast<int>(cfg_.numTables) - 1) {
        unsigned start = static_cast<unsigned>(p.provider + 1);
        // Randomise the first candidate table a little (classic TAGE).
        if (start + 1 < cfg_.numTables && rng_.chance(0.33))
            ++start;
        bool allocated = false;
        for (unsigned t = start; t < cfg_.numTables && !allocated; ++t) {
            TaggedEntry &e = tables_[slot_[t]];
            if (e.useful.value() == 0) {
                e.tag = tag_[t];
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
                tables_[slot_[t]].useful.decrement();
        }
    }

    hist_.push(taken);
}

} // namespace trb
