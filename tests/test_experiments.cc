/**
 * @file
 * Integration tests: the experiment harness plumbing, and -- most
 * importantly -- the paper's headline directional results, asserted on
 * the numbers the figure benches print.  These are the assertions that
 * would catch a regression that flipped the sign of an improvement.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "experiments/experiment.hh"
#include "experiments/figures.hh"
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
 * The paper's Figure 3, as its bench prints it: flag-reg slows the
 * highest-MPKI quartile of traces down more than the lowest.
 */
TEST(PaperDirections, FlagRegSlowdownRisesWithBranchMpki)
{
    const FigureThree fig = figureThree(kFigureTraceLength);
    ASSERT_EQ(fig.rows.size(), 135u);
    EXPECT_GT(fig.flagRegSlowdown.highest, fig.flagRegSlowdown.lowest);
}

/**
 * The paper's Figure 4, as its bench prints it: base-update speeds the
 * densest writeback-load quartile of traces up more than the sparsest.
 */
TEST(PaperDirections, BaseUpdateSpeedupRisesWithWritebackDensity)
{
    const FigureFour fig = figureFour(kFigureTraceLength);
    ASSERT_EQ(fig.rows.size(), 135u);
    EXPECT_GT(fig.speedup.highest, fig.speedup.lowest);
}

/**
 * The paper's Figure 5, as its bench prints it: on every trace that
 * returns through BLR X30, the original conversion leaves return MPKI
 * high, and the call-stack fix cuts it tenfold and raises IPC.
 */
TEST(PaperDirections, CallStackFixesReturnMpkiOnBlrTraces)
{
    std::set<std::string> blr;
    for (const TraceSpec &spec : cvp1PublicSuite(kFigureTraceLength))
        if (spec.params.blrX30Frac > 0.0)
            blr.insert(spec.name);
    ASSERT_EQ(blr.size(), 14u);
    const FigureFive fig = figureFive(kFigureTraceLength);
    ASSERT_EQ(fig.rows.size(), 135u);
    for (const FigureFive::Row &row : fig.rows) {
        if (!blr.count(row.name))
            continue;
        SCOPED_TRACE(row.name);
        EXPECT_GT(row.rasMpkiOrig, 5.0);
        EXPECT_LT(row.rasMpkiFixed, row.rasMpkiOrig / 10.0);
        EXPECT_GT(row.speedup, 0.0);
    }
}

/**
 * The paper's Table 3, as its bench prints it: on the fixed traces most
 * of the eight IPC-1 prefetchers gain more, and the ranking changes.
 */
TEST(PaperDirections, FixedTracesRaiseMostPrefetchersAndReRankThem)
{
    const TableThree table = tableThree(kTableThreeTraceLength);
    ASSERT_EQ(table.traces, 50u);
    const std::vector<PrefetcherScore> &competition = table.ranking[0];
    const std::vector<PrefetcherScore> &fixed = table.ranking[1];
    ASSERT_EQ(competition.size(), 8u);
    ASSERT_EQ(fixed.size(), 8u);

    std::string scores;  // both rankings, for the failure messages
    for (int v = 0; v < 2; ++v) {
        scores += v ? "\nfixed:      " : "competition:";
        for (const PrefetcherScore &s : table.ranking[v])
            scores += " " + s.name + " " + std::to_string(s.speedup);
    }
    unsigned rises = 0;
    for (const PrefetcherScore &f : fixed)
        for (const PrefetcherScore &c : competition)
            rises += c.name == f.name && f.speedup > c.speedup;
    EXPECT_GE(rises, 5u) << scores;
    bool reranked = false;
    for (std::size_t r = 0; r < fixed.size(); ++r)
        reranked |= fixed[r].name != competition[r].name;
    EXPECT_TRUE(reranked) << scores;
}

/**
 * The paper's Section 4.3 side effect: splitting each writeback load
 * into a load and an add inflates the record count while the branch
 * stream stays the same, so per-kilo-instruction rates drop.
 */
TEST(PaperDirections, BaseUpdateShrinksMpkisViaInflation)
{
    std::size_t checked = 0;
    for (const TraceSpec &spec : reducedSuite(30000)) {
        CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
        if (writebackLoadFraction(cvp) == 0.0)
            continue;
        SCOPED_TRACE(spec.name);
        EXPECT_GT(Cvp2ChampSim(kImpBaseUpdate).convert(cvp).size(),
                  Cvp2ChampSim(kImpNone).convert(cvp).size());
        SimStats orig = simulate(cvp, {.imps = kImpNone}).stats;
        SimStats fixed = simulate(cvp, {.imps = kImpBaseUpdate}).stats;
        EXPECT_LT(fixed.branchMpki(), orig.branchMpki());
        ++checked;
    }
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
 * Run @p body and exit: 1 if an expectation in it failed, each failure's
 * message written to stderr (where a death test's report reads it), 0
 * otherwise.
 */
template <typename Body>
[[noreturn]] void
runAndExit(Body body)
{
    body();
    const ::testing::TestResult &result =
        *::testing::UnitTest::GetInstance()->current_test_info()->result();
    for (int i = 0; i < result.total_part_count(); ++i) {
        const ::testing::TestPartResult &part = result.GetTestPartResult(i);
        if (part.failed())
            std::fprintf(stderr, "%s:%d: %s\n", part.file_name(),
                         part.line_number(), part.message());
    }
    std::exit(result.Failed() ? 1 : 0);
}

/**
 * Run @p body in a fresh process of this test binary: gtest's threadsafe
 * death-test style re-executes it for this test alone, so the pool size
 * and TRB_LINT, which are read once per process, are read anew however
 * many tests this process ran before.
 */
template <typename Body>
void
inFreshProcess(Body body)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(runAndExit(body), ::testing::ExitedWithCode(0), "");
}

/**
 * Run the Fig. 1 sweep over blrMixSuite() on @p jobs workers, without
 * and then with a store, and check every ratio and baseline bit for bit
 * against direct simulate() calls of each set, the count of cells
 * answered from the baseline against the inert verdicts, and the counts
 * of cells that replayed the baseline's branch tape and that stopped.
 */
void
checkSweepAgainstDirectCalls(const char *jobs)
{
    // Sized before the global pool's first use in this process.
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
        const std::uint64_t replayed0 =
            registryCounter("sweep.cells_replayed");
        const std::uint64_t mismatched0 =
            registryCounter("sweep.tape_mismatches");
        std::vector<SimStats> baseline;
        const std::vector<DeltaSeries> series =
            runImprovementSweep(suite, sets, params, &baseline);
        EXPECT_EQ(registryCounter("sweep.cells_from_baseline") - answered0,
                  inert_cells);
        // call-stack, Branch and All change srv_blr's branch stream, the
        // one trace with BLR X30; every other simulated cell replays.
        EXPECT_EQ(registryCounter("sweep.tape_mismatches") - mismatched0,
                  3u);
        EXPECT_EQ(registryCounter("sweep.cells_replayed") - replayed0,
                  suite.size() * sets.size() - inert_cells - 3);
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
    inFreshProcess([] { checkSweepAgainstDirectCalls("1"); });
}

TEST(InertCells, SweepMatchesDirectSimulateOnFourWorkers)
{
    inFreshProcess([] { checkSweepAgainstDirectCalls("4"); });
}

/** Under TRB_LINT every cell still converts, so lint sees each one. */
TEST(InertCells, LintStillSeesEveryCell)
{
    inFreshProcess([] {
        // Read once per process, at the first lint check.
        setenv("TRB_LINT", "1", 1);
        const std::vector<TraceSpec> suite = blrMixSuite();
        const std::size_t cells = suite.size() * figureOneSets().size();
        runImprovementSweep(suite, figureOneSets(), modernConfig());
        EXPECT_EQ(registryCounter("lint.streams"),
                  suite.size() + cells);
        EXPECT_EQ(registryCounter("sweep.cells_from_baseline"), 0u);
        // The inert cells simulate too, and replay.
        EXPECT_EQ(registryCounter("sweep.tape_mismatches"), 3u);
        EXPECT_EQ(registryCounter("sweep.cells_replayed"), cells - 3);
        unsetenv("TRB_LINT");
    });
}

} // namespace
} // namespace trb
