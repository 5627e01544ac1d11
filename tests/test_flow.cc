/**
 * @file
 * Tests for trb::flow: CFG reconstruction over hand-built µop streams,
 * the worklist dataflow solution, the whole-program lint rules against
 * the committed cfg_* fixtures (which the streaming linter must pass),
 * streaming/whole-program agreement on the dirty No_imp fixtures, and
 * the streaming-only selection that skips the CFG altogether.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "convert/cvp2champsim.hh"
#include "flow/analyze.hh"
#include "flow/rules.hh"
#include "lint/lint.hh"
#include "synth/generator.hh"
#include "trace/champsim_trace.hh"

namespace trb
{
namespace
{

using flow::Cfg;
using flow::Dataflow;
using flow::EdgeKind;
using flow::FlowResult;

// ---------------------------------------------------------------------
// Record factories (same shapes as tools/make_lint_testdata.cc).

ChampSimRecord
alu(Addr pc, RegId dst, std::initializer_list<RegId> srcs)
{
    ChampSimRecord rec;
    rec.ip = pc;
    if (dst != 0)
        rec.addDstReg(dst);
    for (RegId s : srcs)
        rec.addSrcReg(s);
    return rec;
}

ChampSimRecord
condBr(Addr pc, bool taken, RegId condReg)
{
    ChampSimRecord rec;
    rec.ip = pc;
    rec.isBranch = 1;
    rec.branchTaken = taken ? 1 : 0;
    rec.addDstReg(champsim::kInstructionPointer);
    rec.addSrcReg(champsim::kInstructionPointer);
    rec.addSrcReg(condReg);
    return rec;
}

ChampSimRecord
load(Addr pc, RegId dst, Addr ea)
{
    ChampSimRecord rec = alu(pc, dst, {});
    rec.addSrcMem(ea);
    return rec;
}

/** A -> B -> C -> A taken-branch loop, @p iters times. */
ChampSimTrace
loopTrace(int iters)
{
    ChampSimTrace t;
    for (int i = 0; i < iters; ++i) {
        t.push_back(alu(0x1000, 7, {8}));
        t.push_back(load(0x1004, 8, 0x80000 + 64 * Addr(i)));
        t.push_back(condBr(0x1008, true, 7));
        t.push_back(alu(0x2000, 9, {7}));
        t.push_back(condBr(0x2004, true, 9));
        t.push_back(alu(0x3000, 10, {9}));
        t.push_back(condBr(0x3004, true, 10));
    }
    return t;
}

std::string
fixturePath(const std::string &name)
{
    return std::string(TRB_SOURCE_DIR) + "/tests/data/lint/" + name;
}

// ---------------------------------------------------------------------
// CFG reconstruction.

TEST(Cfg, LoopBlocksAndEdges)
{
    Cfg cfg = flow::buildCfg(loopTrace(10));

    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.entryBlock, 0u);
    EXPECT_EQ(cfg.blocks[0].start, 0x1000u);
    EXPECT_EQ(cfg.blocks[0].end, 0x1008u);
    EXPECT_EQ(cfg.blocks[0].numUops, 3u);
    EXPECT_TRUE(cfg.blocks[0].endsInBranch);
    EXPECT_EQ(cfg.blocks[0].terminator, BranchType::Conditional);
    EXPECT_EQ(cfg.blocks[0].execCount, 10u);
    EXPECT_EQ(cfg.blocks[0].uopCount, 30u);

    // Three taken edges, each traversed every iteration (A's re-entry
    // edge 9 times), no teleports, every non-entry entry explained.
    ASSERT_EQ(cfg.edges.size(), 3u);
    for (const flow::Edge &e : cfg.edges)
        EXPECT_EQ(e.kind, EdgeKind::Taken);
    EXPECT_EQ(cfg.teleports, 0u);
    for (std::size_t b = 1; b < cfg.blocks.size(); ++b)
        EXPECT_EQ(cfg.blocks[b].entries, cfg.blocks[b].explainedEntries);
}

TEST(Cfg, MemorySummaryAndSignatures)
{
    Cfg cfg = flow::buildCfg(loopTrace(10));

    const flow::BasicBlock &a = cfg.blocks[0];
    EXPECT_EQ(a.mem.loads, 10u);
    EXPECT_EQ(a.mem.stores, 0u);
    EXPECT_EQ(a.mem.strideUnit, 9u);   // 64-byte stride, 9 revisits
    EXPECT_EQ(a.mem.lines, 10u);

    const flow::PcSig &sig = cfg.pcSigs.at(0x1008);
    EXPECT_TRUE(sig.isBranch);
    EXPECT_TRUE(sig.srcs.test(7));
    EXPECT_TRUE(sig.dsts.test(champsim::kInstructionPointer));
    EXPECT_EQ(sig.occurrences, 10u);
}

TEST(Cfg, FallthroughSplitsBlocks)
{
    // A non-taken branch ends the block; the successor is a new block
    // entered through a fall-through edge.
    ChampSimTrace t;
    for (int i = 0; i < 5; ++i) {
        t.push_back(alu(0x1000, 7, {}));
        t.push_back(condBr(0x1004, false, 7));
        t.push_back(alu(0x1008, 8, {7}));
        t.push_back(condBr(0x100c, true, 8));
    }
    Cfg cfg = flow::buildCfg(t);

    ASSERT_EQ(cfg.blocks.size(), 2u);
    ASSERT_EQ(cfg.edges.size(), 2u);
    EXPECT_EQ(cfg.edges[0].kind, EdgeKind::Fallthrough);
    EXPECT_EQ(cfg.edges[1].kind, EdgeKind::Taken);
    EXPECT_EQ(cfg.teleports, 0u);
    ASSERT_EQ(cfg.fallExits[0].size(), 1u);
    EXPECT_EQ(cfg.fallExits[0][0].targetPc, 0x1008u);
    EXPECT_TRUE(cfg.fallExits[0][0].contiguous);
}

TEST(Cfg, TeleportEntryIsUnexplained)
{
    // A 256-byte forward skip: inside the streaming window, far beyond
    // the static-neighbour window -- a teleport, not an edge.
    ChampSimTrace t;
    for (int i = 0; i < 5; ++i) {
        t.push_back(alu(0x1000, 7, {}));
        t.push_back(alu(0x1100, 8, {7}));
        t.push_back(condBr(0x1104, true, 8));
    }
    Cfg cfg = flow::buildCfg(t);

    ASSERT_EQ(cfg.blocks.size(), 2u);
    EXPECT_EQ(cfg.teleports, 5u);
    const flow::BasicBlock &d = cfg.blocks[1];
    EXPECT_EQ(d.entries, 5u);
    EXPECT_EQ(d.explainedEntries, 0u);
}

// ---------------------------------------------------------------------
// Dataflow.

TEST(Dataflow, ReachingDefsAndLiveness)
{
    Cfg cfg = flow::buildCfg(loopTrace(10));
    Dataflow df = flow::solveDataflow(cfg);

    ASSERT_EQ(df.gen.size(), 3u);
    // A defines r7/r8, C's use of r9 makes it live out of B, and B's
    // def of r9 reaches C's entry.
    EXPECT_TRUE(df.gen[0].test(7));
    EXPECT_TRUE(df.gen[0].test(8));
    EXPECT_TRUE(df.upExposed[1].test(7));
    EXPECT_TRUE(df.liveOut[1].test(9));
    EXPECT_TRUE(df.reachAnyIn[2].test(9));
    EXPECT_GT(df.iterations, 0u);
}

TEST(Dataflow, DefUseChainsLinkAcrossBlocks)
{
    Cfg cfg = flow::buildCfg(loopTrace(10));
    Dataflow df = flow::solveDataflow(cfg);

    // B's upward-exposed read of r7 at 0x2000 must chain to A's def
    // site at 0x1000 (the loop edge makes it reach).
    const flow::UseSite *use = nullptr;
    for (const flow::UseSite &u : df.chains)
        if (u.reg == 7 && u.pc == 0x2000)
            use = &u;
    ASSERT_NE(use, nullptr);
    ASSERT_EQ(use->defs.size(), 1u);
    const flow::DefSite &def = df.defSites[use->defs[0]];
    EXPECT_EQ(def.pc, 0x1000u);
    EXPECT_EQ(def.reg, 7);
}

// ---------------------------------------------------------------------
// Whole-program rules: catalog wiring.

TEST(CfgRules, CatalogMarksWholeProgramRules)
{
    std::vector<std::string> ids = flow::wholeProgramRuleIds();
    ASSERT_EQ(ids.size(), 5u);
    for (const std::string &id : ids) {
        const lint::RuleInfo *info = lint::findRule(id);
        ASSERT_NE(info, nullptr) << id;
        EXPECT_TRUE(info->wholeProgram) << id;
        EXPECT_FALSE(info->needsCvp) << id;
    }
    // The streaming linter must skip them even on an explicit enable.
    lint::LintOptions opts;
    opts.enable = ids;
    std::vector<std::string> resolved;
    std::string bad;
    ASSERT_TRUE(opts.resolveRules(resolved, bad));
    EXPECT_TRUE(resolved.empty());
}

// ---------------------------------------------------------------------
// Whole-program rules: the committed fixtures.  Each seeds exactly one
// CFG defect; the streaming linter must pass every one of them (at
// warn-and-above) while the analyzer flags exactly the intended rule.

struct FixtureCase
{
    const char *file;
    const char *rule;
};

// Without this gtest prints the two pointers' bytes after "GetParam() =",
// and the CTest names gtest_discover_tests builds from that listing would
// change with the load address on every build.
void PrintTo(const FixtureCase &fc, std::ostream *os)
{
    *os << fc.rule;
}

class CfgFixture : public ::testing::TestWithParam<FixtureCase>
{
};

TEST_P(CfgFixture, StreamingPassesAnalyzerFlags)
{
    const FixtureCase &fc = GetParam();
    auto trace = tryReadChampSimTrace(fixturePath(fc.file));
    ASSERT_TRUE(trace.ok()) << trace.status().message();

    lint::LintReport streaming = lint::lintTrace(trace.value());
    EXPECT_EQ(streaming.violations(), 0u)
        << fc.file << " must be invisible to the linear scan";

    FlowResult result = flow::analyzeTrace(trace.value());
    EXPECT_GT(result.report.countFor(fc.rule), 0u);
    for (const lint::RuleCount &rc : result.report.counts)
        EXPECT_EQ(rc.rule, fc.rule)
            << fc.file << " fired an unintended rule";
    ASSERT_FALSE(result.report.diagnostics.empty());
    EXPECT_EQ(result.report.diagnostics[0].rule, fc.rule);
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, CfgFixture,
    ::testing::Values(
        FixtureCase{"cfg_staledef.champsimtrace.gz", "cfg-stale-def"},
        FixtureCase{"cfg_unreachable.champsimtrace.gz", "cfg-unreachable"},
        FixtureCase{"cfg_fallthrough.champsimtrace.gz", "cfg-fallthrough"},
        FixtureCase{"cfg_callimb.champsimtrace.gz", "cfg-call-balance"},
        FixtureCase{"cfg_staleflags.champsimtrace.gz",
                    "cfg-flag-staleness"}),
    [](const auto &info) {
        std::string name = info.param.rule;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(CfgRules, StaleDefReportsUseSite)
{
    auto trace =
        tryReadChampSimTrace(fixturePath("cfg_staledef.champsimtrace.gz"));
    ASSERT_TRUE(trace.ok());
    FlowResult result = flow::analyzeTrace(trace.value());
    ASSERT_EQ(result.report.countFor("cfg-stale-def"), 2u);
    for (const lint::Diagnostic &d : result.report.diagnostics)
        EXPECT_EQ(d.pc, 0x3000u);   // the cross-block read, not the def
}

// ---------------------------------------------------------------------
// Streaming/whole-program agreement: every diagnostic the linear scan
// finds on the dirty fixtures must also be in the analyzer's report,
// same rule at the same PC (the analyzer runs the same streaming pass).

TEST(Agreement, AnalyzerSubsumesStreamingFindings)
{
    for (const char *name :
         {"srv_small.No_imp.champsimtrace.gz",
          "int_small.No_imp.champsimtrace.gz",
          "mem_small.No_imp.champsimtrace.gz"}) {
        auto trace = tryReadChampSimTrace(fixturePath(name));
        ASSERT_TRUE(trace.ok()) << name;

        lint::LintReport streaming = lint::lintTrace(trace.value());
        FlowResult whole = flow::analyzeTrace(trace.value());

        std::set<std::pair<std::string, Addr>> found;
        for (const lint::Diagnostic &d : whole.report.diagnostics)
            found.emplace(d.rule, d.pc);
        for (const lint::Diagnostic &d : streaming.diagnostics)
            EXPECT_TRUE(found.count({d.rule, d.pc}) != 0)
                << name << ": " << d.rule << " at " << d.pc;
        for (const lint::RuleCount &rc : streaming.counts)
            EXPECT_EQ(whole.report.countFor(rc.rule), rc.count)
                << name << ": " << rc.rule;
    }
}

// ---------------------------------------------------------------------
// A selection without whole-program rules builds no CFG and renders
// exactly what the streaming linter renders, text and JSON alike.

void
expectStreamingOnly(const FlowResult &whole,
                    const lint::LintReport &streaming,
                    const std::string &name)
{
    EXPECT_TRUE(whole.cfg.blocks.empty()) << name;
    EXPECT_TRUE(whole.dataflow.chains.empty()) << name;

    std::ostringstream whole_text, streaming_text;
    flow::writeAnalysisText(whole_text, whole, name);
    lint::writeReportText(streaming_text, streaming, name);
    EXPECT_EQ(whole_text.str(), streaming_text.str());

    std::ostringstream whole_json, streaming_json;
    flow::writeAnalysisJson(whole_json, whole, name);
    lint::writeReportJson(streaming_json, streaming, name);
    EXPECT_EQ(whole_json.str(), streaming_json.str());
}

TEST(Agreement, StreamingOnlySelectionSkipsTheCfg)
{
    lint::LintOptions opts;
    opts.disable = flow::wholeProgramRuleIds();
    for (std::string stem : {"srv_small", "int_small", "mem_small"}) {
        auto cs = tryReadChampSimTrace(
            fixturePath(stem + ".No_imp.champsimtrace.gz"));
        auto cvp = tryReadCvpTrace(fixturePath(stem + ".cvp.gz"));
        ASSERT_TRUE(cs.ok()) << stem;
        ASSERT_TRUE(cvp.ok()) << stem;

        expectStreamingOnly(flow::analyzeTrace(cs.value(), opts),
                            lint::lintTrace(cs.value(), opts),
                            stem + " (stream-only)");
        lint::LintReport paired =
            lint::lintConverted(cvp.value(), cs.value(), opts);
        EXPECT_GT(paired.violations(), 0u) << stem;
        expectStreamingOnly(
            flow::analyzeConverted(cvp.value(), cs.value(), opts), paired,
            stem + " (paired)");
    }
}

// ---------------------------------------------------------------------
// Clean conversions stay clean under the whole-program pass.

TEST(Analyze, FullyImprovedConversionsAreClean)
{
    for (WorkloadParams params :
         {computeIntParams(7), serverParams(3)}) {
        CvpTrace cvp = TraceGenerator(params).generate(20000);
        ChampSimTrace cs = Cvp2ChampSim(ImprovementSet{kAllImps}).convert(cvp);

        FlowResult result = flow::analyzeConverted(cvp, cs);
        EXPECT_TRUE(result.report.paired);
        EXPECT_EQ(result.report.violations(), 0u);
        EXPECT_EQ(result.cfg.teleports, 0u);
        EXPECT_GT(result.cfg.blocks.size(), 1u);
    }
}

} // namespace
} // namespace trb
