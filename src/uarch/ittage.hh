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

#include "common/aligned.hh"
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
        std::size_t providerIndex = 0;  //!< provider's slot in tables_
    };

    std::size_t baseIndex(Addr pc) const;

    /** History folds: the index image, then the tag image. */
    enum Fold : unsigned { kIdxFold, kTagFold };

    IttageConfig cfg_;
    AlignedVector<Addr> base_;
    /** The tagged tables back to back: table t's entries start at
     *  t << log2Entries. */
    AlignedVector<Entry> tables_;
    GlobalHistory hist_;

    /**
     * Per table, the current branch's entry in tables_ and its tag.
     * predict() computes them once; update() of the same branch reuses
     * them for allocation, since the history moves only after it.
     */
    std::vector<std::size_t> slot_;
    std::vector<std::uint16_t> tag_;

    Prediction last_;
    Rng rng_{0x17746e};
};

} // namespace trb

#endif // TRB_UARCH_ITTAGE_HH
