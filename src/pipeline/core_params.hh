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
#include "common/param_list.hh"
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
#define TRB_CORE_PARAMS(X)                                                \
    X(unsigned, fetchWidth, "fw", 6)                                      \
    X(unsigned, issueWidth, "iw", 6)                                      \
    X(unsigned, retireWidth, "rw", 6)                                     \
    X(unsigned, robSize, "rob", 320)                                      \
    /** Fetch-to-dispatch depth in cycles. */                             \
    X(unsigned, frontendDepth, "fd", 8)                                   \
    /** Extra cycles after resolution before fetch restarts. */           \
    X(unsigned, mispredictPenalty, "mp", 2)                               \
    /** Redirect cost for decode-resolvable direct-target misses. */      \
    X(unsigned, decodeRedirectPenalty, "drp", 3)                          \
    /** Decoupled (FDIP-style) front-end with FTQ lookahead prefetch. */  \
    X(bool, decoupledFrontEnd, "dfe", true)                               \
    /** Runahead distance in instructions. */                             \
    X(unsigned, ftqLookahead, "ftq", 24)                                  \
    /** Ideal branch-target prediction (the IPC-1 ChampSim setup). */     \
    X(bool, idealTargets, "it", false)                                    \
    /** Branch-type deduction rules (patched per paper Section 3.2.2). */ \
    X(DeductionRules, rules, "rules", DeductionRules::Patched)            \
    X(DirPredKind, dirPred, "dir", DirPredKind::TageScL)                  \
    X(std::size_t, btbEntries, "btb", 16384)                              \
    X(unsigned, btbWays, "btbw", 8)                                       \
    X(std::size_t, rasEntries, "ras", 64)                                 \
    X(HierarchyParams, mem, "mem")
    TRB_PARAM_FIELDS(TRB_CORE_PARAMS)
};

} // namespace trb

#endif // TRB_PIPELINE_CORE_PARAMS_HH
