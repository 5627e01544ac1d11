/**
 * @file
 * Simulation statistics: the numbers the paper's tables and figures are
 * made of -- IPC, branch MPKI split into direction and (taken-branch)
 * target components, per-branch-type mispredictions, and per-level cache
 * MPKIs.
 */

#ifndef TRB_PIPELINE_SIM_STATS_HH
#define TRB_PIPELINE_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace trb
{

/** Measurement-phase statistics of one simulation. */
struct SimStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t branchMispredicts = 0;   //!< direction or target
    std::uint64_t directionMispredicts = 0;
    std::uint64_t targetMispredicts = 0;   //!< on taken branches

    /** Indexed by BranchType (0..6). */
    std::array<std::uint64_t, 7> typeCount{};
    std::array<std::uint64_t, 7> typeMispredicts{};
    std::array<std::uint64_t, 7> typeTargetMispredicts{};

    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t l1iMshrMerges = 0, l1dMshrMerges = 0;

    /** Dispatches delayed because the ROB slot was still occupied. */
    std::uint64_t robFullStalls = 0;

    double
    ipc() const
    {
        return cycles != 0
                   ? static_cast<double>(instructions) /
                         static_cast<double>(cycles)
                   : 0.0;
    }

    double branchMpki() const { return mpki(branchMispredicts, instructions); }
    double directionMpki() const
    {
        return mpki(directionMispredicts, instructions);
    }
    double targetMpki() const { return mpki(targetMispredicts, instructions); }

    /** Return-target mispredictions per kilo instruction (Fig. 5). */
    double
    returnMpki() const
    {
        return mpki(typeTargetMispredicts[static_cast<int>(
                        BranchType::Return)],
                    instructions);
    }

    double l1iMpki() const { return mpki(l1iMisses, instructions); }
    double l1dMpki() const { return mpki(l1dMisses, instructions); }
    double l2Mpki() const { return mpki(l2Misses, instructions); }
    double llcMpki() const { return mpki(llcMisses, instructions); }

    /** All counters as a StatSet (for reports). */
    StatSet toStatSet() const;

    /**
     * Register every counter (and the derived IPC/MPKI gauges) under
     * @p prefix in a metrics registry, e.g. "<prefix>.core.rob.full_stalls",
     * "<prefix>.cache.l1i.mshr_merges", "<prefix>.ipc".
     */
    void exportTo(obs::MetricsRegistry &reg,
                  const std::string &prefix) const;

    /** Phase arithmetic: measurement = end snapshot - start snapshot. */
    SimStats operator-(const SimStats &base) const;

    /**
     * Flatten every counter into a fixed-order u64 vector -- the exact
     * bits, so a stats artifact served from the store (or a serve reply)
     * restores to a bit-identical SimStats.  fromBits() is the inverse;
     * it rejects a vector of the wrong length (one written by an
     * older/newer stat layout).
     */
    std::vector<std::uint64_t> toBits() const;
    static bool fromBits(const std::vector<std::uint64_t> &bits,
                         SimStats &out);
};

} // namespace trb

#endif // TRB_PIPELINE_SIM_STATS_HH
