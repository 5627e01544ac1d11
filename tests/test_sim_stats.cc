/**
 * @file
 * Tests for the SimStats reporting plumbing: derived metrics, the
 * registry export and the warmup snapshot arithmetic -- each checked
 * over every counter of the one field list toBits() walks.
 */

#include <gtest/gtest.h>

#include <set>

#include "pipeline/sim_stats.hh"

namespace trb
{
namespace
{

SimStats
sample()
{
    SimStats s;
    s.instructions = 10000;
    s.cycles = 5000;
    s.branches = 1500;
    s.takenBranches = 900;
    s.branchMispredicts = 60;
    s.directionMispredicts = 40;
    s.targetMispredicts = 20;
    s.typeCount[static_cast<int>(BranchType::Return)] = 100;
    s.typeTargetMispredicts[static_cast<int>(BranchType::Return)] = 5;
    s.l1iAccesses = 3000;
    s.l1iMisses = 90;
    s.l1dAccesses = 2500;
    s.l1dMisses = 250;
    s.l2Accesses = 340;
    s.l2Misses = 120;
    s.llcAccesses = 120;
    s.llcMisses = 30;
    s.prefetchesIssued = 77;
    return s;
}

/** A SimStats whose i-th toBits() field is @p first + i * @p step. */
SimStats
distinct(std::uint64_t first, std::uint64_t step)
{
    std::vector<std::uint64_t> bits = SimStats{}.toBits();
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = first + i * step;
    SimStats s;
    EXPECT_TRUE(SimStats::fromBits(bits, s));
    return s;
}

TEST(SimStats, DerivedMetrics)
{
    SimStats s = sample();
    EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(s.branchMpki(), 6.0);
    EXPECT_DOUBLE_EQ(s.directionMpki(), 4.0);
    EXPECT_DOUBLE_EQ(s.targetMpki(), 2.0);
    EXPECT_DOUBLE_EQ(s.returnMpki(), 0.5);
    EXPECT_DOUBLE_EQ(s.l1iMpki(), 9.0);
    EXPECT_DOUBLE_EQ(s.l1dMpki(), 25.0);
    EXPECT_DOUBLE_EQ(s.l2Mpki(), 12.0);
    EXPECT_DOUBLE_EQ(s.llcMpki(), 3.0);

    SimStats zero;
    EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(zero.branchMpki(), 0.0);
}

TEST(SimStats, ExportNamesEveryField)
{
    const SimStats s = distinct(1000, 7);
    const std::vector<std::uint64_t> bits = s.toBits();
    obs::MetricsRegistry reg;
    s.exportTo(reg, "sim");

    // One counter per toBits() field, in that order, under unique names.
    const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), bits.size());
    std::set<std::string> names;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const auto &c = snap.counters[i];
        EXPECT_EQ(c.path.rfind("sim.", 0), 0u) << c.path;
        EXPECT_TRUE(names.insert(c.path).second) << "duplicate " << c.path;
        EXPECT_EQ(c.value, bits[i]) << c.path;
    }

    // Per-type names spell the type as branchTypeName() does (every
    // value is distinct and non-zero, so an absent name reads 0 and
    // fails).
    for (int t = 0; t < 7; ++t) {
        const std::string base =
            std::string("sim.branch.") +
            branchTypeName(static_cast<BranchType>(t));
        EXPECT_EQ(reg.counterValue(base + ".count"), s.typeCount[t]);
        EXPECT_EQ(reg.counterValue(base + ".mispredicts"),
                  s.typeMispredicts[t]);
        EXPECT_EQ(reg.counterValue(base + ".target_mispredicts"),
                  s.typeTargetMispredicts[t]);
    }
    EXPECT_EQ(reg.counterValue("sim.instructions"), s.instructions);
    EXPECT_EQ(reg.counterValue("sim.cache.l1i.mshr_merges"),
              s.l1iMshrMerges);
    EXPECT_EQ(reg.counterValue("sim.core.rob.full_stalls"), s.robFullStalls);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("sim.ipc"), s.ipc());
    EXPECT_DOUBLE_EQ(reg.gaugeValue("sim.cache.llc.mpki"), s.llcMpki());
}

TEST(SimStats, SnapshotSubtraction)
{
    SimStats end = sample();
    SimStats base = sample();
    base.instructions = 4000;
    base.cycles = 1000;
    base.branchMispredicts = 10;
    base.l1dMisses = 100;
    base.typeTargetMispredicts[static_cast<int>(BranchType::Return)] = 2;

    SimStats d = end - base;
    EXPECT_EQ(d.instructions, 6000u);
    EXPECT_EQ(d.cycles, 4000u);
    EXPECT_EQ(d.branchMispredicts, 50u);
    EXPECT_EQ(d.l1dMisses, 150u);
    EXPECT_EQ(
        d.typeTargetMispredicts[static_cast<int>(BranchType::Return)], 3u);
    EXPECT_DOUBLE_EQ(d.ipc(), 1.5);

    // Every field subtracts, not just the ones spelled above.
    const SimStats hi = distinct(5000, 11);
    const SimStats lo = distinct(100, 3);
    const std::vector<std::uint64_t> a = hi.toBits();
    const std::vector<std::uint64_t> b = lo.toBits();
    const std::vector<std::uint64_t> diff = (hi - lo).toBits();
    ASSERT_EQ(diff.size(), a.size());
    for (std::size_t i = 0; i < diff.size(); ++i)
        EXPECT_EQ(diff[i], a[i] - b[i]) << "field " << i;
}

} // namespace
} // namespace trb
