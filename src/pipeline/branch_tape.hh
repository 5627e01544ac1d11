/**
 * @file
 * The branch-outcome tape: what one run's branch predictors saw and
 * answered, branch by branch, so a later run of the same branch stream
 * under the same predictor configuration can replay the answers instead
 * of predicting them.
 *
 * TAGE-SC-L, ITTAGE, the BTB and the RAS see only branch records -- each
 * branch's ip, deduced type, direction and target -- and their state is
 * a function of that stream alone: fetch timing, the memory hierarchy
 * and the instruction prefetcher never reach them.  So two runs whose
 * streams are equal get equal answers, bit for bit, and O3Core::replay()
 * checks each branch against its entry and stops at the first
 * difference.  A Fig. 1 row records the tape on its No_imp baseline and
 * replays it in every simulated cell of the row; Table 3 records on each
 * conversion's no-prefetcher run and replays it in the prefetcher runs.
 */

#ifndef TRB_PIPELINE_BRANCH_TAPE_HH
#define TRB_PIPELINE_BRANCH_TAPE_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "pipeline/core_params.hh"

namespace trb
{

/** The answer the predictors give one branch at fetch. */
struct BranchOutcome
{
    bool directionMisp = false;
    bool targetMisp = false;
    bool decodeResolvable = false;  //!< direct target known at decode
};

/** The CoreParams fields the branch predictors are built from. */
struct PredictorParams
{
    bool idealTargets = false;
    DirPredKind dirPred = DirPredKind::TageScL;
    std::size_t btbEntries = 0;
    unsigned btbWays = 0;
    std::size_t rasEntries = 0;

    static PredictorParams
    of(const CoreParams &p)
    {
        return {p.idealTargets, p.dirPred, p.btbEntries, p.btbWays,
                p.rasEntries};
    }

    bool operator==(const PredictorParams &) const = default;
};

/** One run's branch stream as the predictors saw it, and their answers. */
struct BranchTape
{
    /** What the predictors see of one branch. */
    struct Seen
    {
        Addr ip = 0;
        Addr target = 0;  //!< the next record's ip when taken, else 0
        BranchType type = BranchType::NotBranch;
        bool taken = false;

        bool operator==(const Seen &) const = default;
    };

    struct Entry
    {
        Seen seen;
        BranchOutcome answer;
    };

    /** The configuration the tape was recorded under; a replay under
     *  any other is refused. */
    PredictorParams params;

    /** One entry per branch that reaches a predictor, in trace order. */
    std::vector<Entry> entries;

    /**
     * What the predictors see of a branch; nothing when it reaches
     * none.  Under idealTargets only the direction predictor runs, and
     * it sees conditional branches' ips and directions alone, so no
     * other branch is on the tape and no target is compared.
     */
    std::optional<Seen>
    seen(Addr ip, BranchType type, bool taken, Addr target) const
    {
        if (!params.idealTargets)
            return Seen{ip, target, type, taken};
        if (type == BranchType::Conditional)
            return Seen{ip, 0, type, taken};
        return std::nullopt;
    }
};

} // namespace trb

#endif // TRB_PIPELINE_BRANCH_TAPE_HH
