/**
 * @file
 * Integration tests: the experiment harness plumbing, and -- most
 * importantly -- the paper's headline directional results on a reduced
 * suite.  These are the assertions that would catch a regression that
 * flipped the sign of an improvement.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "experiments/experiment.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace trb
{
namespace
{

/** A reduced public suite: every 9th trace, short, for test runtime. */
std::vector<TraceSpec>
reducedSuite(std::uint64_t length)
{
    auto full = cvp1PublicSuite(length);
    std::vector<TraceSpec> out;
    for (std::size_t i = 0; i < full.size(); i += 9)
        out.push_back(full[i]);
    return out;
}

TEST(Harness, FigureOneSetsCoverTable1)
{
    const auto &sets = figureOneSets();
    ASSERT_EQ(sets.size(), 9u);
    EXPECT_EQ(sets[0].set, kImpMemRegs);
    EXPECT_EQ(sets.back().set, kAllImps);
    // The groups are the unions of their members.
    EXPECT_EQ(kMemoryImps,
              kImpMemRegs | kImpBaseUpdate | kImpMemFootprint);
    EXPECT_EQ(kBranchImps, kImpCallStack | kImpBranchRegs | kImpFlagReg);
    EXPECT_EQ(kAllImps, kMemoryImps | kBranchImps);
    EXPECT_EQ(kIpc1Imps, kAllImps & ~kImpMemFootprint);
}

TEST(Harness, ForEachTraceHonoursScale)
{
    auto suite = reducedSuite(2000);
    setenv("TRB_SUITE_SCALE", "0.5", 1);
    // Atomic: the harness may invoke the callback from several
    // workers when TRB_JOBS > 1.
    std::atomic<std::size_t> seen{0};
    forEachTrace(suite, [&](std::size_t i, const TraceSpec &spec,
                            const CvpTrace &t) {
        EXPECT_EQ(spec.name, suite[i].name);
        EXPECT_EQ(t.size(), 2000u);
        ++seen;
    });
    unsetenv("TRB_SUITE_SCALE");
    EXPECT_EQ(seen, (suite.size() + 1) / 2);
}

TEST(Harness, DeltaSeriesMath)
{
    DeltaSeries s;
    s.ratio = {1.10, 0.90, 1.02};
    EXPECT_NEAR(s.geomeanDeltaPercent(),
                100.0 * (std::cbrt(1.10 * 0.90 * 1.02) - 1.0), 1e-9);
    EXPECT_EQ(s.countAbove(5.0), 2u);
    EXPECT_EQ(s.countAbove(15.0), 0u);
}

TEST(Harness, WritebackLoadFraction)
{
    CvpTrace t;
    CvpRecord wb;
    wb.cls = InstClass::Load;
    wb.ea = 0x1000;
    wb.accessSize = 8;
    wb.addSrc(0);
    wb.addDst(0, 0x1000);   // pre-index
    wb.addDst(1, 0xdead);
    CvpRecord plain;
    plain.cls = InstClass::Load;
    plain.ea = 0x2000;
    plain.accessSize = 8;
    plain.addSrc(0);
    plain.addDst(1, 0xbeef);
    CvpRecord alu;
    alu.cls = InstClass::Alu;
    alu.addDst(2, 1);
    t = {wb, plain, alu, alu};
    EXPECT_DOUBLE_EQ(writebackLoadFraction(t), 0.25);
}

/**
 * The paper's Figure 1 signs, on a 15-trace sub-suite.  Thresholds are
 * loose -- the point is the direction, not the calibration.
 */
TEST(PaperDirections, FigureOneSigns)
{
    auto suite = reducedSuite(30000);
    auto series = runImprovementSweep(suite, figureOneSets(),
                                      modernConfig());
    auto find = [&](const char *name) -> const DeltaSeries & {
        for (const auto &s : series)
            if (s.setName == name)
                return s;
        static DeltaSeries empty;
        return empty;
    };
    // Memory improvements help or are neutral.
    EXPECT_GT(find("base-update").geomeanDeltaPercent(), 0.5);
    EXPECT_NEAR(find("mem-regs").geomeanDeltaPercent(), 0.0, 1.0);
    EXPECT_NEAR(find("mem-footprint").geomeanDeltaPercent(), 0.0, 2.0);
    // Branch dependency restoration costs IPC.
    EXPECT_LT(find("flag-reg").geomeanDeltaPercent(), -1.0);
    EXPECT_LT(find("branch-regs").geomeanDeltaPercent(), -0.5);
    EXPECT_GE(find("call-stack").geomeanDeltaPercent(), 0.0);
    // Groups follow their members.
    EXPECT_GT(find("Memory").geomeanDeltaPercent(), 0.0);
    EXPECT_LT(find("Branch").geomeanDeltaPercent(), -1.0);
}

/**
 * The paper's Figure 5 over the whole BLR-X30 subset: on every CVP-1
 * trace that returns through BLR X30, the original conversion leaves
 * return MPKI high, and the call-stack fix cuts it by an order of
 * magnitude and raises IPC.
 */
TEST(PaperDirections, CallStackFixesReturnMpkiOnBlrTraces)
{
    std::vector<TraceSpec> blr;
    for (const auto &spec : cvp1PublicSuite(30000))
        if (spec.params.blrX30Frac > 0.0)
            blr.push_back(spec);
    ASSERT_EQ(blr.size(), 14u);

    for (const TraceSpec &spec : blr) {
        SCOPED_TRACE(spec.name);
        CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
        SimStats orig = simulate(cvp, {.imps = kImpNone}).stats;
        SimStats fixed = simulate(cvp, {.imps = kImpCallStack}).stats;
        EXPECT_GT(orig.returnMpki(), 5.0);
        EXPECT_LT(fixed.returnMpki(), orig.returnMpki() / 10.0);
        EXPECT_GT(fixed.ipc(), orig.ipc());
    }
}

/**
 * The paper's Figure 4 over the whole CVP-1 suite: base-update's speedup
 * grows with the fraction of writeback (base-updating) loads, so the
 * densest quartile of traces gains more on average than the sparsest.
 * The whole suite, because one outlier flips the reduced suite's
 * 15 traces.
 */
TEST(PaperDirections, BaseUpdateSpeedupRisesWithWritebackDensity)
{
    struct Point
    {
        double density;
        double speedup;
    };
    std::vector<Point> points;
    for (const TraceSpec &spec : cvp1PublicSuite(30000)) {
        CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
        SimStats orig = simulate(cvp, {.imps = kImpNone}).stats;
        SimStats fixed = simulate(cvp, {.imps = kImpBaseUpdate}).stats;
        points.push_back(
            {writebackLoadFraction(cvp), fixed.ipc() / orig.ipc() - 1.0});
    }
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  return a.density < b.density;
              });

    const std::size_t q = points.size() / 4;
    ASSERT_GT(q, 0u);
    double lowest = 0.0, highest = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
        lowest += points[i].speedup / static_cast<double>(q);
        highest += points[points.size() - 1 - i].speedup /
                   static_cast<double>(q);
    }
    EXPECT_GT(highest, lowest)
        << "mean speedup, lowest-density quartile " << 100.0 * lowest
        << "%, highest " << 100.0 * highest << "%";
}

TEST(PaperDirections, BaseUpdateShrinksMpkisViaInflation)
{
    // The paper's Section 4.3 side effect: splitting inflates the
    // instruction count, so per-kilo-instruction rates drop slightly.
    auto suite = reducedSuite(30000);
    std::atomic<std::size_t> checked{0};
    forEachTrace(suite, [&](std::size_t, const TraceSpec &,
                            const CvpTrace &cvp) {
        Cvp2ChampSim conv(kImpBaseUpdate);
        ChampSimTrace out = conv.convert(cvp);
        EXPECT_GE(out.size(), cvp.size());
        ++checked;
    });
    EXPECT_GT(checked, 10u);
}

// ---------------------------------------------------------------------
// Cells answered from the baseline.

/**
 * Four short traces: two without BLR X30 (call-stack inert), one with
 * (nothing inert), and one with neither BLR X30 nor a compare (call-stack
 * and flag-reg inert).
 */
std::vector<TraceSpec>
blrMixSuite()
{
    std::vector<TraceSpec> suite(4);
    suite[0] = {"int", computeIntParams(41), 6000};
    suite[1] = {"srv", serverParams(42), 6000};
    suite[2] = {"srv_blr", serverParams(43), 6000};
    suite[2].params.blrX30Frac = 0.8;
    suite[2].params.indirectCallFrac = 0.4;
    suite[3] = {"int_nocmp", computeIntParams(44), 6000};
    suite[3].params.fracCmp = 0.0;
    suite[3].params.condRegFrac = 1.0;
    return suite;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::uint64_t
registryCounter(const char *path)
{
    return obs::MetricsRegistry::global().counterValue(path);
}

/**
 * Run the Fig. 1 sweep over blrMixSuite() on @p jobs workers, without
 * and then with a store, and check every ratio and baseline bit for bit
 * against direct simulate() calls of each set, and the count of cells
 * answered from the baseline against the inert verdicts.
 */
void
checkSweepAgainstDirectCalls(const char *jobs)
{
    // Sized before the global pool's first use in this process (each
    // gtest case is its own process under ctest).
    setenv("TRB_JOBS", jobs, 1);
    const std::vector<TraceSpec> suite = blrMixSuite();
    const std::vector<NamedSet> &sets = figureOneSets();
    const CoreParams params = modernConfig();

    std::vector<CvpTrace> traces;
    std::vector<SimStats> direct_base;
    std::vector<std::vector<std::uint64_t>> direct_ratio;
    std::uint64_t inert_cells = 0;
    for (const TraceSpec &spec : suite) {
        traces.push_back(TraceGenerator(spec.params).generate(spec.length));
        const ImprovementSet inert = inertImprovements(traces.back());
        const SimStats base =
            simulate(traces.back(), {.params = params, .useStore = false})
                .stats;
        direct_base.push_back(base);
        std::vector<std::uint64_t> row;
        for (const NamedSet &set : sets) {
            const SimStats s = simulate(traces.back(), {.imps = set.set,
                                                        .params = params,
                                                        .useStore = false})
                                   .stats;
            row.push_back(doubleBits(s.ipc() / base.ipc()));
            inert_cells += (set.set & ~inert) == kImpNone;
        }
        direct_ratio.push_back(row);
    }
    EXPECT_EQ(inertImprovements(traces[0]), kImpCallStack);
    EXPECT_EQ(inertImprovements(traces[2]), kImpNone);
    EXPECT_EQ(inertImprovements(traces[3]), kImpCallStack | kImpFlagReg);
    // call-stack on the three traces without BLR X30, flag-reg on one.
    EXPECT_EQ(inert_cells, 4u);

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("trb_inert_sweep_" + std::to_string(::getpid())))
            .string();
    for (bool storing : {false, true}) {
        std::filesystem::remove_all(dir);
        store::Store::setDirForTesting(storing ? dir : "");
        const std::uint64_t answered0 =
            registryCounter("sweep.cells_from_baseline");
        std::vector<SimStats> baseline;
        const std::vector<DeltaSeries> series =
            runImprovementSweep(suite, sets, params, &baseline);
        EXPECT_EQ(registryCounter("sweep.cells_from_baseline") - answered0,
                  inert_cells);
        ASSERT_EQ(baseline.size(), suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            EXPECT_EQ(baseline[i].toBits(), direct_base[i].toBits())
                << suite[i].name;
            for (std::size_t k = 0; k < sets.size(); ++k)
                EXPECT_EQ(doubleBits(series[k].ratio[i]),
                          direct_ratio[i][k])
                    << suite[i].name << " " << sets[k].name
                    << (storing ? " with a store" : "");
        }
        if (storing) {
            // Every cell but the baseline-answered ones was published.
            store::Store st(dir);
            EXPECT_EQ(st.list().size(),
                      suite.size() * (1 + sets.size()) - inert_cells);
        }
    }
    store::Store::setDirForTesting("");
    std::filesystem::remove_all(dir);
    unsetenv("TRB_JOBS");
}

TEST(InertCells, SweepMatchesDirectSimulateOnOneWorker)
{
    checkSweepAgainstDirectCalls("1");
}

TEST(InertCells, SweepMatchesDirectSimulateOnFourWorkers)
{
    checkSweepAgainstDirectCalls("4");
}

/** Under TRB_LINT every cell still converts, so lint sees each one. */
TEST(InertCells, LintStillSeesEveryCell)
{
    // Read once per process, at the first lint check.
    setenv("TRB_LINT", "1", 1);
    const std::vector<TraceSpec> suite = blrMixSuite();
    const std::uint64_t streams0 = registryCounter("lint.streams");
    const std::uint64_t answered0 =
        registryCounter("sweep.cells_from_baseline");
    runImprovementSweep(suite, figureOneSets(), modernConfig());
    EXPECT_EQ(registryCounter("lint.streams") - streams0,
              suite.size() * (1 + figureOneSets().size()));
    EXPECT_EQ(registryCounter("sweep.cells_from_baseline"), answered0);
    unsetenv("TRB_LINT");
}

} // namespace
} // namespace trb
