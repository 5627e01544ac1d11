/**
 * @file
 * Regenerates the committed lint CI fixtures under tests/data/lint/:
 * three small deterministic synthetic CVP-1 traces plus their All_imps
 * and No_imp conversions, and five hand-built ChampSim-only traces each
 * seeding exactly one whole-program CFG defect.  CI lints the All_imps
 * pairs with --fail-on=error (must be clean), publishes the No_imp JSON
 * report as an artifact (must be full of findings), and gates the
 * cfg_* fixtures both ways: trace_lint's whole-program rules must flag
 * them, while its streaming rules alone must pass them (the defects are
 * invisible to a linear scan).
 *
 * Usage:  make_lint_testdata [output-dir]   (default tests/data/lint)
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>

#include "convert/cvp2champsim.hh"
#include "synth/generator.hh"
#include "trace/champsim_trace.hh"
#include "trace/cvp_trace.hh"

namespace
{

using namespace trb;

/** Exit non-zero with the Status of a failed fixture write. */
void
check(const Status &st)
{
    if (st.ok())
        return;
    std::fprintf(stderr, "make_lint_testdata: %s\n", st.toString().c_str());
    std::exit(1);
}

/** A plain ALU record: no branch flags, explicit reg slots. */
ChampSimRecord
alu(Addr pc, std::initializer_list<RegId> dsts,
    std::initializer_list<RegId> srcs)
{
    ChampSimRecord rec;
    rec.ip = pc;
    for (RegId d : dsts)
        rec.addDstReg(d);
    for (RegId s : srcs)
        rec.addSrcReg(s);
    return rec;
}

/**
 * A conditional branch under the patched deduction rules: writes the
 * IP, reads the IP plus one condition register (flags or a GPR), never
 * touches the stack pointer.
 */
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

/** A direct call: reads+writes IP and SP. */
ChampSimRecord
call(Addr pc)
{
    ChampSimRecord rec;
    rec.ip = pc;
    rec.isBranch = 1;
    rec.branchTaken = 1;
    rec.addDstReg(champsim::kInstructionPointer);
    rec.addDstReg(champsim::kStackPointer);
    rec.addSrcReg(champsim::kInstructionPointer);
    rec.addSrcReg(champsim::kStackPointer);
    return rec;
}

/** A return: reads+writes SP, writes (but never reads) the IP. */
ChampSimRecord
ret(Addr pc)
{
    ChampSimRecord rec;
    rec.ip = pc;
    rec.isBranch = 1;
    rec.branchTaken = 1;
    rec.addDstReg(champsim::kInstructionPointer);
    rec.addDstReg(champsim::kStackPointer);
    rec.addSrcReg(champsim::kStackPointer);
    return rec;
}

/**
 * cfg-stale-def: a three-block loop A -> B -> C -> A where A's first
 * µop canonically defines r7 and C reads it.  On two iterations the
 * def record drops its destination while a slot is free -- a linear
 * scan sees nothing (def-before-use is a paired rule and every branch
 * still deduces), but the whole-program pass witnesses C consuming the
 * stale value.
 */
ChampSimTrace
cfgStaleDefTrace()
{
    ChampSimTrace t;
    for (int iter = 0; iter < 30; ++iter) {
        ChampSimRecord def = alu(0x1000, {7}, {8});
        if (iter == 10 || iter == 20)
            def.destRegs[0] = 0;   // dropped def, slot provably free
        t.push_back(def);
        t.push_back(alu(0x1004, {8}, {}));
        t.push_back(condBr(0x1008, true, 7));
        t.push_back(alu(0x2000, {9}, {}));
        t.push_back(condBr(0x2004, true, 9));
        t.push_back(alu(0x3000, {10}, {7}));   // cross-block use of r7
        t.push_back(condBr(0x3004, true, 9));
    }
    return t;
}

/**
 * cfg-unreachable: block D at 0x1100 is only ever entered by a 252-byte
 * forward PC skip from A -- inside the streaming 4096-byte fall-through
 * window (pc-teleport stays quiet) but far beyond any static
 * neighbourhood, so no CFG edge ever explains D's entries.
 */
ChampSimTrace
cfgUnreachableTrace()
{
    ChampSimTrace t;
    for (int iter = 0; iter < 25; ++iter) {
        t.push_back(alu(0x1000, {7}, {}));
        t.push_back(alu(0x1004, {8}, {7}));
        t.push_back(alu(0x1100, {9}, {8}));   // 252-byte teleport entry
        t.push_back(condBr(0x1104, true, 9));
    }
    return t;
}

/**
 * cfg-fallthrough: the never-taken branch ending block A falls through
 * to 0x1008 on odd iterations and 0x1010 on even ones -- two distinct
 * static successors for one exit µop, impossible for real straight-line
 * code, yet every individual step is small enough to pass the streaming
 * continuity rule.
 */
ChampSimTrace
cfgFallthroughTrace()
{
    ChampSimTrace t;
    for (int iter = 0; iter < 24; ++iter) {
        t.push_back(alu(0x1000, {7}, {}));
        t.push_back(condBr(0x1004, false, 7));
        if (iter % 2 != 0)
            t.push_back(alu(0x1008, {8}, {7}));
        t.push_back(alu(0x1010, {9}, {7}));
        t.push_back(condBr(0x1014, true, 9));
    }
    return t;
}

/**
 * cfg-call-balance: every call from 0x1004 should resume at 0x1008, but
 * the callee's return lands at 0x3000 instead.  The RAS depth never
 * goes negative (calls and returns alternate, so ras-balance is happy);
 * only matching return targets against observed call fall-through PCs
 * exposes the imbalance.
 */
ChampSimTrace
cfgCallImbTrace()
{
    ChampSimTrace t;
    for (int iter = 0; iter < 15; ++iter) {
        t.push_back(alu(0x1000, {7}, {}));
        t.push_back(call(0x1004));
        t.push_back(alu(0x5000, {8}, {7}));
        t.push_back(ret(0x5004));
        t.push_back(alu(0x3000, {9}, {8}));   // not the call's pc+4
        t.push_back(condBr(0x3004, true, 9));
    }
    return t;
}

/**
 * cfg-flag-staleness: A's compare canonically produces the flags that
 * B's conditional consumes.  Two occurrences drop the flags
 * destination, so B branches on stale flags -- undetectable without
 * crossing the block boundary.
 */
ChampSimTrace
cfgStaleFlagsTrace()
{
    ChampSimTrace t;
    for (int iter = 0; iter < 30; ++iter) {
        ChampSimRecord cmp = alu(0x1000, {champsim::kFlags}, {7, 8});
        if (iter == 12 || iter == 24)
            cmp.destRegs[0] = 0;   // dropped flags def
        t.push_back(cmp);
        t.push_back(alu(0x1004, {7}, {}));
        t.push_back(condBr(0x1008, true, 7));
        t.push_back(alu(0x2000, {8}, {}));
        t.push_back(condBr(0x2004, true, champsim::kFlags));
        t.push_back(alu(0x3000, {9}, {8}));
        t.push_back(condBr(0x3004, true, 9));
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace trb;

    std::string dir = argc >= 2 ? argv[1] : "tests/data/lint";
    std::filesystem::create_directories(dir);

    const struct
    {
        const char *name;
        WorkloadParams params;
    } fixtures[] = {
        {"srv_small", serverParams(7)},
        {"int_small", computeIntParams(1)},
        {"mem_small", memoryBoundParams(3)},
    };
    constexpr std::uint64_t kLength = 8000;

    for (const auto &f : fixtures) {
        WorkloadParams params = f.params;
        params.baseUpdateFrac = 0.08;   // make every defect class reachable
        params.blrX30Frac = 0.3;
        CvpTrace cvp = TraceGenerator(params).generate(kLength);

        std::string base = dir + "/" + f.name;
        check(tryWriteCvpTrace(base + ".cvp.gz", cvp));
        for (ImprovementSet imps :
             {ImprovementSet{kAllImps}, ImprovementSet{kImpNone}}) {
            Cvp2ChampSim conv(imps);
            ChampSimTrace cs = conv.convert(cvp);
            std::string out = base + "." + improvementSetName(imps) +
                              ".champsimtrace.gz";
            check(tryWriteChampSimTrace(out, cs));
            std::printf("%s: %zu records\n", out.c_str(), cs.size());
        }
    }

    const struct
    {
        const char *name;
        ChampSimTrace (*build)();
    } cfgFixtures[] = {
        {"cfg_staledef", cfgStaleDefTrace},
        {"cfg_unreachable", cfgUnreachableTrace},
        {"cfg_fallthrough", cfgFallthroughTrace},
        {"cfg_callimb", cfgCallImbTrace},
        {"cfg_staleflags", cfgStaleFlagsTrace},
    };
    for (const auto &f : cfgFixtures) {
        ChampSimTrace cs = f.build();
        std::string out = dir + "/" + f.name + ".champsimtrace.gz";
        check(tryWriteChampSimTrace(out, cs));
        std::printf("%s: %zu records\n", out.c_str(), cs.size());
    }
    return 0;
}
