/**
 * @file
 * TAGE-SC-L-lite: a TAGE predictor with geometric history lengths, a loop
 * predictor and a small statistical-corrector table -- the 64KB-class
 * configuration the paper's methodology section names, scaled to the
 * structure (not the bit-exact budget) of Seznec's CBP-5 submission.
 */

#ifndef TRB_UARCH_TAGE_HH
#define TRB_UARCH_TAGE_HH

#include <cstdint>
#include <vector>

#include "common/aligned.hh"
#include "common/counters.hh"
#include "common/rng.hh"
#include "uarch/direction_pred.hh"

namespace trb
{

/** Configuration of the TAGE component. */
struct TageConfig
{
    unsigned numTables = 8;         //!< tagged tables
    unsigned log2Entries = 10;      //!< entries per tagged table
    unsigned log2BaseEntries = 14;  //!< bimodal base table
    unsigned minHistory = 4;        //!< shortest geometric history
    unsigned maxHistory = 160;      //!< longest geometric history
    unsigned tagBits = 11;
    unsigned ctrBits = 3;
    bool useLoopPredictor = true;
    bool useStatisticalCorrector = true;
};

/** TAGE with loop predictor and statistical corrector. */
class TageScL : public DirectionPredictor
{
  public:
    explicit TageScL(const TageConfig &config = TageConfig{});

    bool predict(Addr pc) override;
    void update(Addr pc, bool taken) override;
    const char *name() const override { return "tage-sc-l"; }

    /** Tagged-table hit statistics (for tests/ablation). */
    std::uint64_t providerHits() const { return providerHits_; }

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr{3, 3};       //!< 3-bit, weakly taken-ish midpoint
        SatCounter useful{2, 0};
    };

    struct LoopEntry
    {
        std::uint16_t tag = 0;
        std::uint16_t tripCount = 0;   //!< learned iteration count
        std::uint16_t currentIter = 0;
        SatCounter confidence{3, 0};
        bool valid = false;
    };

    struct Prediction
    {
        bool taken = false;
        bool altTaken = false;
        int provider = -1;          //!< tagged table index, -1 = base
        int alt = -1;
        std::size_t providerIndex = 0;  //!< provider's slot in tables_
        std::size_t altIndex = 0;       //!< alt's slot in tables_
        bool weak = false;          //!< newly allocated provider
        bool loopUsed = false;
        bool loopPrediction = false;
        bool scUsed = false;
        std::size_t scIndex = 0;
        bool tageTaken = false;
    };

    std::size_t baseIndex(Addr pc) const;
    Prediction lookup(Addr pc);

    bool loopPredict(Addr pc, bool &prediction, bool &high_confidence);
    void loopUpdate(Addr pc, bool taken);

    /** History folds: the index image, then the tag's two images. */
    enum Fold : unsigned { kIdxFold, kTagFold1, kTagFold2 };

    TageConfig cfg_;
    AlignedVector<SatCounter> base_;
    /** The tagged tables back to back: table t's entries start at
     *  t << log2Entries. */
    AlignedVector<TaggedEntry> tables_;
    GlobalHistory hist_;

    /**
     * Per table, the current branch's entry in tables_ and its tag.
     * predict() computes them once; update() of the same branch reuses
     * them for allocation, since the history moves only after it.
     */
    std::vector<std::size_t> slot_;
    std::vector<std::uint16_t> tag_;

    SignedSatCounter useAltOnNa_{4, 0};
    static constexpr std::size_t kScEntries = 1024;     //!< power of two
    static constexpr std::size_t kLoopEntries = 256;    //!< power of two
    AlignedVector<SignedSatCounter> scTable_;
    SignedSatCounter scThreshold_{6, 0};

    AlignedVector<LoopEntry> loopTable_;

    Prediction last_;
    Rng rng_{0x7a6e};
    std::uint64_t providerHits_ = 0;
};

} // namespace trb

#endif // TRB_UARCH_TAGE_HH
