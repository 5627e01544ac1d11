/**
 * @file
 * Core model configuration: pipeline widths and depths, front-end
 * organisation (coupled vs decoupled, branch predictor choice, ideal
 * target prediction for the IPC-1 setup) and the memory hierarchy.
 */

#ifndef TRB_PIPELINE_CORE_PARAMS_HH
#define TRB_PIPELINE_CORE_PARAMS_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "trace/branch_deduce.hh"

namespace trb
{

/** Which conditional direction predictor the front-end uses. */
enum class DirPredKind : std::uint8_t
{
    TageScL,
    Gshare,
    Bimodal,
};

/**
 * Parameters of the out-of-order core model.  The defaults are the
 * paper's Section 4 configuration, modernConfig().
 */
struct CoreParams
{
    unsigned fetchWidth = 6;
    unsigned issueWidth = 6;
    unsigned retireWidth = 6;
    unsigned robSize = 320;

    /** Fetch-to-dispatch depth in cycles. */
    unsigned frontendDepth = 8;

    /** Extra cycles after resolution before fetch restarts. */
    unsigned mispredictPenalty = 2;

    /** Redirect cost for decode-resolvable direct-target misses. */
    unsigned decodeRedirectPenalty = 3;

    /** Decoupled (FDIP-style) front-end with FTQ lookahead prefetch. */
    bool decoupledFrontEnd = true;
    unsigned ftqLookahead = 24;    //!< runahead distance in instructions

    /** Ideal branch-target prediction (the IPC-1 ChampSim setup). */
    bool idealTargets = false;

    /** Branch-type deduction rules (patched per paper Section 3.2.2). */
    DeductionRules rules = DeductionRules::Patched;

    DirPredKind dirPred = DirPredKind::TageScL;
    std::size_t btbEntries = 16384;
    unsigned btbWays = 8;
    std::size_t rasEntries = 64;

    HierarchyParams mem;
};

} // namespace trb

#endif // TRB_PIPELINE_CORE_PARAMS_HH
