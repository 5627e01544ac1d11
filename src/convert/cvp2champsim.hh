/**
 * @file
 * The cvp2champsim converter: CVP-1 records in, ChampSim records out.
 *
 * Two personalities live in one class, selected by the ImprovementSet:
 * with no improvements it faithfully reproduces the *original* converter,
 * including its studied defects --
 *   - every non-branch gets at most one destination register, with X0
 *     inserted into destination-less memory instructions;
 *   - the remaining CVP-1 destinations are silently dropped, so the
 *     dependencies through them vanish;
 *   - any X30-reading unconditional branch is classified as a return,
 *     even when it also writes X30 (an indirect call);
 *   - branch source registers are replaced by the x86 special registers
 *     ChampSim deduces types from (X56 for "reads something else");
 *   - one memory address per instruction, whatever the real footprint --
 * and with improvements enabled it applies the paper's fixes
 * individually or in the Table 1 groups.
 *
 * The converter is streaming (convertOne) and carries the same
 * register-value tracking side table the CVP-2 trace reader uses for
 * addressing-mode inference.
 */

#ifndef TRB_CONVERT_CVP2CHAMPSIM_HH
#define TRB_CONVERT_CVP2CHAMPSIM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "convert/improvements.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace trb
{

/**
 * Conversion algorithm version, part of the store key of every result
 * simulated from a CVP-1 trace.  Bump whenever a change alters the
 * records any (trace, ImprovementSet) pair converts to, or stale store
 * artifacts will silently serve results of the old conversion.
 */
constexpr unsigned kConverterVersion = 1;

/** Outcome of the addressing-mode inference heuristic. */
enum class BaseUpdateKind : std::uint8_t
{
    None,       //!< no writeback inferred
    Pre,        //!< base written before the access (new base == EA)
    Post,       //!< base written after the access (|new base - EA| <= imm)
};

/** Result of inferring a memory record's addressing behaviour. */
struct BaseUpdateInfo
{
    BaseUpdateKind kind = BaseUpdateKind::None;
    RegId baseReg = 0;          //!< CVP-1 register number
    unsigned dstIndex = 0;      //!< index of the base in the dst list
};

/** Conversion statistics (per converter instance, cumulative). */
struct ConvStats
{
    std::uint64_t cvpInstructions = 0;
    std::uint64_t champsimInstructions = 0;

    std::uint64_t x0InsertedMem = 0;      //!< original-converter artefact
    std::uint64_t droppedDstRegs = 0;     //!< extra dsts lost (original)
    std::uint64_t truncatedSrcRegs = 0;   //!< >4 sources capped
    std::uint64_t truncatedDstRegs = 0;   //!< >2 destinations capped

    std::uint64_t baseUpdatePre = 0;
    std::uint64_t baseUpdatePost = 0;
    std::uint64_t splitMicroOps = 0;      //!< extra records from splits

    std::uint64_t lineCrossing = 0;       //!< second address emitted
    std::uint64_t zvaAligned = 0;

    std::uint64_t returnsKept = 0;
    std::uint64_t callsReclassified = 0;  //!< X30 read+write fixed (imp)
    std::uint64_t callsMisclassified = 0; //!< ...or left broken (orig)
    std::uint64_t branchSrcsPreserved = 0;
    std::uint64_t flagDstsAdded = 0;
};

/**
 * Streaming CVP-1 to ChampSim converter.
 *
 * One CVP-1 instruction yields one ChampSim record, or two when the
 * base-update improvement splits it (ALU at pc / memory at pc+2, ordered
 * by pre/post indexing).
 */
class Cvp2ChampSim
{
  public:
    explicit Cvp2ChampSim(ImprovementSet imps);

    /** Convert one record, appending one or two records to @p out. */
    void convertOne(const CvpRecord &rec, ChampSimTrace &out);

    /** Convert a whole trace. */
    ChampSimTrace convert(const CvpTrace &in);

    /** Reset register tracking and statistics. */
    void reset();

    const ConvStats &stats() const { return stats_; }
    ImprovementSet improvements() const { return imps_; }

    /**
     * Map a CVP-1 register number into the ChampSim register space:
     * shifted up by one (0 is ChampSim's empty slot) and steered around
     * the special registers ChampSim deduces branch types from.
     */
    static RegId mapReg(RegId cvp_reg);

    /**
     * The addressing-mode inference heuristic (public for tests):
     * a register appearing as both source and destination whose written
     * value equals the effective address is a pre-index base; one whose
     * written value lands within an immediate's reach of the effective
     * address is a post-index base; everything else (e.g. a pointer
     * chase loading into its own address register) is not a writeback.
     */
    static BaseUpdateInfo inferBaseUpdate(const CvpRecord &rec);

    /** Largest |new base - EA| accepted as a post-index immediate. */
    static constexpr std::int64_t kMaxImmediate = 4096;

  private:
    void convertBranch(const CvpRecord &rec, ChampSimTrace &out);
    void convertMem(const CvpRecord &rec, ChampSimTrace &out);
    void convertAlu(const CvpRecord &rec, ChampSimTrace &out);

    /** Append the second cacheline address when the access crosses. */
    void applyFootprint(const CvpRecord &rec, const BaseUpdateInfo &bu,
                        ChampSimRecord &cs);

    bool has(Improvement i) const { return (imps_ & i) != 0; }

    ImprovementSet imps_;
    ConvStats stats_;
    std::uint64_t regVal_[aarch64::kNumRegs] = {};
};

} // namespace trb

#endif // TRB_CONVERT_CVP2CHAMPSIM_HH
