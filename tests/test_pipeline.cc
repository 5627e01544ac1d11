/**
 * @file
 * Tests for the out-of-order core model: IPC bounds under synthetic
 * instruction sequences, dependency serialisation, branch-misprediction
 * penalties, the decoupled front-end, and the mechanisms the paper's
 * improvements act through (base-register latency, late branch
 * resolution).
 */

#include <malloc.h>

#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "obs/pipeline_trace.hh"
#include "pipeline/o3core.hh"
#include "sim/simulator.hh"
#include "synth/generator.hh"

namespace trb
{
namespace
{

CoreParams
quietParams()
{
    CoreParams p = modernConfig();
    p.decoupledFrontEnd = false;
    p.mem.l1dIpStride = false;
    p.mem.l2NextLine = false;
    return p;
}

/** n independent single-cycle ALU instructions (L1I-resident loop). */
ChampSimTrace
independentAlus(std::size_t n)
{
    ChampSimTrace t;
    for (std::size_t i = 0; i < n; ++i) {
        ChampSimRecord r;
        r.ip = 0x400000 + 4 * (i % 1024);
        r.addDstReg(static_cast<RegId>(10 + (i % 8)));
        t.push_back(r);
    }
    return t;
}

/** n ALU instructions forming one serial dependency chain. */
ChampSimTrace
dependentChain(std::size_t n)
{
    ChampSimTrace t;
    for (std::size_t i = 0; i < n; ++i) {
        ChampSimRecord r;
        r.ip = 0x400000 + 4 * (i % 1024);
        r.addSrcReg(10);
        r.addDstReg(10);
        t.push_back(r);
    }
    return t;
}

TEST(O3Core, IndependentAlusReachIssueWidth)
{
    CoreParams p = quietParams();
    O3Core core(p);
    SimStats s = core.run(independentAlus(30000), 5000);
    EXPECT_GT(s.ipc(), p.issueWidth * 0.8);
    EXPECT_LE(s.ipc(), p.issueWidth + 0.01);
}

TEST(O3Core, DependentChainRunsAtOneIpc)
{
    O3Core core(quietParams());
    SimStats s = core.run(dependentChain(30000), 5000);
    EXPECT_NEAR(s.ipc(), 1.0, 0.05);
}

TEST(O3Core, FetchWidthBoundsEvenWithWideIssue)
{
    CoreParams p = quietParams();
    p.fetchWidth = 2;
    O3Core core(p);
    SimStats s = core.run(independentAlus(30000), 5000);
    EXPECT_LE(s.ipc(), 2.01);
    EXPECT_GT(s.ipc(), 1.7);
}

TEST(O3Core, RobLimitsOverlapAcrossLongLoads)
{
    // Loads that miss to DRAM: with a tiny ROB the core cannot overlap
    // them, so IPC collapses relative to a big ROB.
    auto make = [](std::size_t n) {
        ChampSimTrace t;
        for (std::size_t i = 0; i < n; ++i) {
            ChampSimRecord r;
            r.ip = 0x400000 + 4 * (i % 64);
            r.addSrcMem(0x10000000 + 64 * (i * 7919 % 100000));
            r.addDstReg(static_cast<RegId>(10 + (i % 4)));
            t.push_back(r);
        }
        return t;
    };
    CoreParams big = quietParams();
    big.robSize = 512;
    CoreParams small = quietParams();
    small.robSize = 16;
    SimStats s_big = O3Core(big).run(make(20000));
    SimStats s_small = O3Core(small).run(make(20000));
    EXPECT_GT(s_big.ipc(), 2.0 * s_small.ipc());
}

/** Conditional branch record (reads flags). */
ChampSimRecord
condBranch(Addr ip, bool taken)
{
    ChampSimRecord r;
    r.ip = ip;
    r.isBranch = 1;
    r.branchTaken = taken;
    r.addSrcReg(champsim::kInstructionPointer);
    r.addSrcReg(champsim::kFlags);
    r.addDstReg(champsim::kInstructionPointer);
    return r;
}

TEST(O3Core, PredictableBranchesAreCheap)
{
    // Always-taken loop branch: TAGE learns it, IPC stays high.
    ChampSimTrace t;
    for (int rep = 0; rep < 4000; ++rep) {
        for (int i = 0; i < 7; ++i) {
            ChampSimRecord r;
            r.ip = 0x400000 + 4u * i;
            r.addDstReg(static_cast<RegId>(10 + i));
            t.push_back(r);
        }
        t.push_back(condBranch(0x400000 + 28, true));
    }
    O3Core core(quietParams());
    SimStats s = core.run(t, 8000);
    EXPECT_LT(s.branchMpki(), 3.0);
    EXPECT_GT(s.ipc(), 2.0);
}

TEST(O3Core, RandomBranchesPayThePenalty)
{
    Rng rng(3);
    auto make = [&rng](bool random) {
        ChampSimTrace t;
        Rng local(7);
        for (int rep = 0; rep < 6000; ++rep) {
            for (int i = 0; i < 5; ++i) {
                ChampSimRecord r;
                r.ip = 0x400000 + 4u * i;
                r.addDstReg(static_cast<RegId>(10 + i));
                t.push_back(r);
            }
            bool taken = random ? local.chance(0.5) : true;
            t.push_back(condBranch(0x400000 + 20, taken));
            // Model both fall-through and taken landing on same next ip.
        }
        return t;
    };
    SimStats easy = O3Core(quietParams()).run(make(false), 6000);
    SimStats hard = O3Core(quietParams()).run(make(true), 6000);
    EXPECT_GT(hard.directionMpki(), 30.0);
    EXPECT_LT(easy.directionMpki(), 3.0);
    EXPECT_GT(easy.ipc(), 1.5 * hard.ipc());
}

TEST(O3Core, LateResolvingBranchHurtsMore)
{
    // The branch-regs/flag-reg mechanism: a mispredicting branch that
    // depends on a DRAM-missing load resolves late, so the penalty is
    // exposed; an input-free branch resolves early.
    Rng rng(11);
    auto make = [](bool dependent, Rng &r) {
        ChampSimTrace t;
        for (int rep = 0; rep < 5000; ++rep) {
            ChampSimRecord ld;
            ld.ip = 0x400000;
            ld.addSrcMem(0x20000000 + 64 * ((rep * 7919) % 200000));
            ld.addDstReg(33);
            t.push_back(ld);
            ChampSimRecord br = condBranch(0x400004, r.chance(0.5));
            if (dependent) {
                // Replace the flags source with the load's output.
                br.srcRegs[1] = 33;
            }
            t.push_back(br);
        }
        return t;
    };
    Rng r1(5), r2(5);
    CoreParams p = quietParams();
    p.rules = DeductionRules::Patched;
    SimStats fast = O3Core(p).run(make(false, r1), 5000);
    SimStats slow = O3Core(p).run(make(true, r2), 5000);
    // Same branch outcomes, same mispredictions -- only resolution time
    // differs.
    EXPECT_NEAR(static_cast<double>(slow.directionMispredicts),
                static_cast<double>(fast.directionMispredicts),
                fast.directionMispredicts * 0.05 + 10);
    EXPECT_GT(fast.ipc(), 1.3 * slow.ipc());
}

TEST(O3Core, BaseUpdateSplitRestoresMlp)
{
    // The base-update mechanism: a pointer-increment load chain.  When
    // the base register is a destination of the load (resolves at memory
    // latency), iterations serialise; when an ALU micro-op carries the
    // base, misses overlap.
    auto make = [](bool split) {
        ChampSimTrace t;
        Addr addr = 0x30000000;
        for (int i = 0; i < 8000; ++i) {
            if (split) {
                ChampSimRecord alu;
                alu.ip = 0x400000;
                alu.addSrcReg(40);
                alu.addDstReg(40);
                t.push_back(alu);
                ChampSimRecord ld;
                ld.ip = 0x400002;
                ld.addSrcReg(40);
                ld.addDstReg(41);
                ld.addSrcMem(addr);
                t.push_back(ld);
            } else {
                ChampSimRecord ld;
                ld.ip = 0x400000;
                ld.addSrcReg(40);
                ld.addDstReg(41);
                ld.addDstReg(40);
                ld.addSrcMem(addr);
                t.push_back(ld);
            }
            addr += 4096;   // defeat prefetchers and caches
        }
        return t;
    };
    SimStats fused = O3Core(quietParams()).run(make(false), 4000);
    SimStats split = O3Core(quietParams()).run(make(true), 4000);
    EXPECT_GT(split.ipc(), 3.0 * fused.ipc());
}

TEST(O3Core, ReturnPredictionViaRas)
{
    // call ... ret pairs: the RAS must predict return targets, so the
    // target MPKI stays near zero.
    ChampSimTrace t;
    for (int rep = 0; rep < 3000; ++rep) {
        ChampSimRecord call;
        call.ip = 0x400000;
        call.isBranch = 1;
        call.branchTaken = 1;
        call.addSrcReg(champsim::kInstructionPointer);
        call.addSrcReg(champsim::kStackPointer);
        call.addDstReg(champsim::kInstructionPointer);
        call.addDstReg(champsim::kStackPointer);
        t.push_back(call);

        ChampSimRecord body;
        body.ip = 0x500000;
        body.addDstReg(12);
        t.push_back(body);

        ChampSimRecord ret;
        ret.ip = 0x500004;
        ret.isBranch = 1;
        ret.branchTaken = 1;
        ret.addSrcReg(champsim::kStackPointer);
        ret.addDstReg(champsim::kInstructionPointer);
        ret.addDstReg(champsim::kStackPointer);
        t.push_back(ret);

        ChampSimRecord after;
        after.ip = 0x400004;
        after.addDstReg(13);
        t.push_back(after);
    }
    O3Core core(quietParams());
    SimStats s = core.run(t, 4000);
    EXPECT_LT(s.returnMpki(), 1.0);
}

TEST(O3Core, IdealTargetsSuppressTargetMisses)
{
    // Polymorphic indirect jumps: with ideal targets there are no target
    // mispredictions at all (the IPC-1 configuration).
    Rng rng(13);
    ChampSimTrace t;
    Addr targets[3] = {0x400010, 0x400020, 0x400030};
    for (int rep = 0; rep < 5000; ++rep) {
        ChampSimRecord br;
        br.ip = 0x400000;
        br.isBranch = 1;
        br.branchTaken = 1;
        br.addSrcReg(60);
        br.addDstReg(champsim::kInstructionPointer);
        t.push_back(br);
        ChampSimRecord body;
        body.ip = targets[rng.below(3)];
        body.addDstReg(14);
        t.push_back(body);
    }
    CoreParams real = quietParams();
    CoreParams ideal = quietParams();
    ideal.idealTargets = true;
    SimStats s_real = O3Core(real).run(t, 5000);
    SimStats s_ideal = O3Core(ideal).run(t, 5000);
    EXPECT_GT(s_real.targetMpki(), 20.0);
    EXPECT_EQ(s_ideal.targetMispredicts, 0u);
    EXPECT_GT(s_ideal.ipc(), s_real.ipc());
}

TEST(O3Core, DecoupledFrontEndPrefetchesBigFootprints)
{
    // A large sequential instruction footprint: FDIP lookahead turns
    // most L1I misses into timely prefetches.
    ChampSimTrace t;
    for (int i = 0; i < 60000; ++i) {
        ChampSimRecord r;
        r.ip = 0x400000 + 4u * static_cast<Addr>(i % 30000);   // 120 KiB
        r.addDstReg(static_cast<RegId>(10 + (i % 8)));
        t.push_back(r);
    }
    CoreParams coupled = quietParams();
    CoreParams fdip = quietParams();
    fdip.decoupledFrontEnd = true;
    SimStats s_coupled = O3Core(coupled).run(t, 30000);
    SimStats s_fdip = O3Core(fdip).run(t, 30000);
    EXPECT_GT(s_fdip.ipc(), 1.2 * s_coupled.ipc());
}

TEST(O3Core, WarmupExcludedFromStats)
{
    ChampSimTrace t = independentAlus(20000);
    O3Core a(quietParams()), b(quietParams());
    SimStats full = a.run(t, 0);
    SimStats half = b.run(t, 10000);
    EXPECT_EQ(full.instructions, 20000u);
    EXPECT_EQ(half.instructions, 10000u);
    EXPECT_LT(half.cycles, full.cycles);
}

TEST(O3Core, StoresCountInDataCacheStats)
{
    ChampSimTrace t;
    for (int i = 0; i < 1000; ++i) {
        ChampSimRecord st;
        st.ip = 0x400000;
        st.addSrcReg(11);
        st.addDstMem(0x40000000 + 64 * i);
        t.push_back(st);
    }
    O3Core core(quietParams());
    SimStats s = core.run(t);
    EXPECT_EQ(s.l1dAccesses, 1000u);
    EXPECT_GT(s.l1dMisses, 900u);
}

/**
 * Every timing invariant the single-pass scheduler promises, checked on
 * one traced run: per-instruction stage order, in-order retirement, the
 * fetch/issue/retire widths and the ROB bound.  Returns the number of
 * violations (each also reported as a test failure).
 */
std::size_t
checkTimingInvariants(const std::vector<obs::InstrEvent> &events,
                      const CoreParams &p, const std::string &what)
{
    std::size_t violations = 0;
    auto expect = [&](bool ok, std::uint64_t seq, const char *rule) {
        if (ok)
            return;
        ++violations;
        ADD_FAILURE() << what << ": " << rule << " at seq " << seq;
    };

    std::unordered_map<Cycle, unsigned> fetched, issued, retired;
    Cycle last_retire = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::InstrEvent &ev = events[i];
        expect(ev.seq == i, ev.seq, "sequence numbers dense");
        expect(ev.fetch <= ev.dispatch, ev.seq, "fetch <= dispatch");
        expect(ev.dispatch < ev.issue, ev.seq, "dispatch < issue");
        expect(ev.issue < ev.complete, ev.seq, "issue < complete");
        expect(ev.complete < ev.retire, ev.seq, "complete < retire");
        expect(ev.retire >= last_retire, ev.seq, "retire monotone");
        last_retire = ev.retire;
        expect(++fetched[ev.fetch] <= p.fetchWidth, ev.seq, "fetch width");
        expect(++issued[ev.issue] <= p.issueWidth, ev.seq, "issue width");
        expect(++retired[ev.retire] <= p.retireWidth, ev.seq,
               "retire width");
        if (i >= p.robSize)
            expect(ev.dispatch >= events[i - p.robSize].retire, ev.seq,
                   "dispatch after the ROB slot's previous retire");
        if (violations > 10)
            break;      // one broken rule floods the log otherwise
    }
    return violations;
}

TEST(O3Core, TracedStampsAreOrderedAndRetireMonotonic)
{
    // A property test over realistic mixes (branches, loads, misses).
    auto check = [](const ChampSimTrace &trace, const CoreParams &p,
                    const std::string &what) {
        obs::PipelineTracer tracer(trace.size());
        O3Core core(p);
        core.setTracer(&tracer);
        core.run(trace);
        ASSERT_EQ(tracer.recorded(), trace.size()) << what;
        EXPECT_EQ(checkTimingInvariants(tracer.events(), p, what), 0u);
    };

    // The original single case: server seed 17, 8000 instructions.
    TraceGenerator server17(serverParams(17));
    check(Cvp2ChampSim(kAllImps).convert(server17.generate(8000)),
          modernConfig(), "server seed 17 x 8000 All_imps modern");
    if (HasFailure())
        return;

    // 5 presets x 8 seeds x {No_imp, All_imps} x {modern, ipc1}.
    using Preset = WorkloadParams (*)(std::uint64_t);
    const std::pair<const char *, Preset> presets[] = {
        {"int", computeIntParams}, {"fp", computeFpParams},
        {"crypto", cryptoParams},  {"server", serverParams},
        {"membound", memoryBoundParams}};
    const std::uint64_t kLength = 20000;

    std::size_t runs = 0;
    for (const auto &[preset_name, preset] : presets) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            TraceGenerator gen(preset(seed));
            CvpTrace cvp = gen.generate(kLength);
            for (ImprovementSet imps : {ImprovementSet{kImpNone}, kAllImps}) {
                ChampSimTrace trace = Cvp2ChampSim(imps).convert(cvp);
                for (bool ipc1 : {false, true}) {
                    std::string what = std::string(preset_name) + " seed " +
                                       std::to_string(seed) +
                                       (imps ? " All_imps" : " No_imp") +
                                       (ipc1 ? " ipc1" : " modern");
                    check(trace, ipc1 ? ipc1Config() : modernConfig(), what);
                    if (HasFailure())
                        return;
                    ++runs;
                }
            }
        }
    }
    EXPECT_EQ(runs, 160u);
}

TEST(O3Core, TinyRobCountsFullStalls)
{
    CoreParams p = quietParams();
    p.robSize = 8;
    O3Core core(p);
    SimStats s = core.run(dependentChain(5000));
    EXPECT_GT(s.robFullStalls, 0u);
}

TEST(Simulator, ConfigsDiffer)
{
    CoreParams m = modernConfig();
    CoreParams i = ipc1Config();
    EXPECT_TRUE(m.decoupledFrontEnd);
    EXPECT_FALSE(i.decoupledFrontEnd);
    EXPECT_FALSE(m.idealTargets);
    EXPECT_TRUE(i.idealTargets);
    EXPECT_EQ(m.rules, DeductionRules::Patched);
}

TEST(Simulator, EndToEndDeterminism)
{
    TraceGenerator gen(computeIntParams(123));
    CvpTrace cvp = gen.generate(20000);
    SimStats a = simulate(cvp, {.imps = kAllImps}).stats;
    SimStats b = simulate(cvp, {.imps = kAllImps}).stats;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
}

/**
 * simulate() converts into a buffer of the calling thread's own, kept
 * between calls: repeated calls that alternate a 1 000- and a 50 000-
 * instruction trace and two improvement sets, on one thread and then on
 * two at once, return the bits of a first call made on a fresh thread.
 */
TEST(SimulateBuffer, RepeatedCallsMatchFirstCalls)
{
    const CvpTrace small = TraceGenerator(computeIntParams(7)).generate(1000);
    const CvpTrace large = TraceGenerator(serverParams(8)).generate(50000);
    struct Case
    {
        const CvpTrace *trace;
        ImprovementSet imps;
    };
    const std::vector<Case> cases = {{&small, kImpNone},
                                     {&large, kAllImps},
                                     {&small, kAllImps},
                                     {&large, kImpNone}};
    auto run = [](const Case &c) {
        return simulate(*c.trace, {.imps = c.imps, .useStore = false})
            .stats.toBits();
    };

    std::vector<std::vector<std::uint64_t>> first(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i)
        std::thread([&, i] { first[i] = run(cases[i]); }).join();

    for (int round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < cases.size(); ++i)
            EXPECT_EQ(run(cases[i]), first[i]) << "case " << i;

    // Two threads at once, walking the cases in opposite orders.
    std::vector<std::vector<std::uint64_t>> fwd(cases.size()),
        rev(cases.size());
    std::thread a([&] {
        for (std::size_t i = 0; i < cases.size(); ++i)
            fwd[i] = run(cases[i]);
    });
    std::thread b([&] {
        for (std::size_t i = cases.size(); i-- > 0;)
            rev[i] = run(cases[i]);
    });
    a.join();
    b.join();
    EXPECT_EQ(fwd, first);
    EXPECT_EQ(rev, first);
}

/**
 * The buffer simulate() keeps is mapped outside the malloc heap: growing
 * it to a 50 000-instruction trace (~3.6 MB) leaves the heap's in-use
 * and malloc-mapped bytes where they were, so it cannot pin blocks freed
 * below it and change whether the caller's next allocations land on
 * mapped or on fresh pages.  A fresh thread starts with an empty buffer.
 */
TEST(SimulateBuffer, KeptBufferStaysOutOfTheMallocHeap)
{
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
    const CvpTrace small = TraceGenerator(computeIntParams(7)).generate(1000);
    const CvpTrace large = TraceGenerator(serverParams(8)).generate(50000);
    auto held = [] {
        const struct mallinfo2 m = mallinfo2();
        return static_cast<long long>(m.uordblks + m.hblkhd);
    };
    std::thread([&] {
        // The first call's one-time set-up stays out of the count.
        simulate(small, {.useStore = false});
        const long long before = held();
        simulate(large, {.useStore = false});
        EXPECT_LT(held() - before, 1LL << 20);
    }).join();
#else
    GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

} // namespace
} // namespace trb
