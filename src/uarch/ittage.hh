/**
 * @file
 * ITTAGE: a tagged-geometric indirect branch target predictor (Seznec,
 * JWAC-2), scaled to the 64KB-class setup of the paper's methodology.
 * A direct-mapped last-target base table backs a set of tagged tables
 * with geometrically increasing global (taken/target-bit) history.
 */

#ifndef TRB_UARCH_ITTAGE_HH
#define TRB_UARCH_ITTAGE_HH

#include <cstdint>
#include <vector>

#include "common/counters.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace trb
{

/** Configuration of the ITTAGE predictor. */
struct IttageConfig
{
    unsigned numTables = 5;
    unsigned log2Entries = 11;
    unsigned log2BaseEntries = 13;
    unsigned minHistory = 4;
    unsigned maxHistory = 128;
    unsigned tagBits = 10;
};

/** Indirect-target predictor with the TAGE organisation. */
class Ittage
{
  public:
    explicit Ittage(const IttageConfig &config = IttageConfig{});

    /** Predicted target for the indirect branch at @p pc (0 = none). */
    Addr predict(Addr pc);

    /**
     * Train with the actual target and fold it into the history.  Call
     * once per indirect branch, after predict() -- the trace-driven
     * pipeline never runs a wrong path.
     */
    void update(Addr pc, Addr target);

    /** Fold a conditional/call direction bit into the history. */
    void pushHistoryBit(bool bit);

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        Addr target = 0;
        SatCounter confidence{2, 0};
        SatCounter useful{1, 0};
    };

    struct Prediction
    {
        Addr target = 0;
        int provider = -1;
        std::size_t providerIndex = 0;
    };

    std::size_t baseIndex(Addr pc) const;
    std::size_t taggedIndex(Addr pc, unsigned t) const;
    std::uint16_t taggedTag(Addr pc, unsigned t) const;

    IttageConfig cfg_;
    std::vector<Addr> base_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<unsigned> histLen_;
    std::vector<FoldedHistory> idxFold_;
    std::vector<FoldedHistory> tagFold_;
    /** Circular history, a power of two above the longest length. */
    std::vector<std::uint8_t> history_;
    std::size_t histMask_ = 0;
    std::size_t histHead_ = 0;

    Prediction last_;
    Rng rng_{0x17746e};
};

} // namespace trb

#endif // TRB_UARCH_ITTAGE_HH
