/**
 * @file
 * Host-cost replay for the layers that only run inside O3Core::run: the
 * memory hierarchy and the branch predictors.  The streams a workload
 * produces (instruction-line fetches, loads, stores, branches) are
 * extracted from its own converted records and fed through each
 * component's public API on its own, timed per operation.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "pipeline/core_params.hh"
#include "spans.hh"
#include "trace/champsim_trace.hh"

namespace perfbench
{

/** The component-level event streams of some converted traces. */
class ReplayStreams
{
  public:
    /** Append @p trace's events until the caps are reached. */
    void extract(trb::ChampSimView trace, trb::DeductionRules rules);

    bool full() const;

    struct MemEvent
    {
        trb::Addr addr;
        trb::Addr ip;
        std::uint8_t kind;   //!< trb::AccessKind
    };

    struct BranchEvent
    {
        trb::Addr ip;
        trb::Addr target;
        trb::BranchType type;
        bool taken;
    };

    std::vector<MemEvent> mem;
    std::vector<BranchEvent> branches;
};

/** Host nanoseconds per operation of each replayed component. */
struct ReplayCost
{
    double cacheNsPerAccess = 0.0;
    double tageNs = 0.0;     //!< per predict + update
    double ittageNs = 0.0;   //!< per predict + update
    double btbNs = 0.0;      //!< per lookup (+ update when taken)
};

/**
 * Replay @p streams through a MemoryHierarchy, TageScL, Ittage and Btb
 * configured like @p params; one span per component.
 */
ReplayCost replay(const ReplayStreams &streams, const trb::CoreParams &params,
                  SpanLog *log);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
