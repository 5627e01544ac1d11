/**
 * @file
 * Tests for the cvp2champsim converter: the original converter's studied
 * defects, each of the six improvements' contracts, the addressing-mode
 * inference heuristic, and whole-trace properties over synthetic suites.
 */

#include <gtest/gtest.h>

#include <set>

#include "convert/cvp2champsim.hh"
#include "experiments/experiment.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"
#include "trace/branch_deduce.hh"

namespace trb
{
namespace
{

// ---------------------------------------------------------------------
// Record factories matching the paper's running examples.

/** LDR X1, [X0, #12]! -- pre-index: X0 := X0+12, X1 := mem[X0+12]. */
CvpRecord
ldrPreIndex(Addr pc = 0x1000, Addr base = 0x8000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Load;
    rec.ea = base + 12;
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addDst(0, base + 12);       // new base == EA, listed first
    rec.addDst(1, 0xdeadbeef);      // loaded data
    return rec;
}

/** LDR X1, [X0], #16 -- post-index: X1 := mem[X0], X0 := X0+16. */
CvpRecord
ldrPostIndex(Addr pc = 0x1000, Addr base = 0x8000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Load;
    rec.ea = base;
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addDst(0, base + 16);       // new base == EA + imm, listed first
    rec.addDst(1, 0xdeadbeef);
    return rec;
}

/** LDP X1, X2, [X0] -- load pair, no writeback. */
CvpRecord
ldpNoWb(Addr pc = 0x1000, Addr base = 0x8000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Load;
    rec.ea = base;
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addDst(1, 0x1111);
    rec.addDst(2, 0x2222);
    return rec;
}

/** PRFM [X0] -- prefetch load, no destination register. */
CvpRecord
prefetchLoad(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Load;
    rec.ea = 0x9000;
    rec.accessSize = 8;
    rec.addSrc(0);
    return rec;
}

/** Plain STR X2, [X0] -- no destination register. */
CvpRecord
plainStore(Addr pc = 0x1000, Addr ea = 0x9100)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Store;
    rec.ea = ea;
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addSrc(2);
    return rec;
}

/** CMP X1, X2 -- ALU with no destination (sets flags). */
CvpRecord
cmpRecord(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::Alu;
    rec.addSrc(1);
    rec.addSrc(2);
    return rec;
}

/** CBZ X5, target -- conditional with a GPR source. */
CvpRecord
cbzRecord(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::CondBranch;
    rec.taken = true;
    rec.target = 0x2000;
    rec.addSrc(5);
    return rec;
}

/** B.EQ target -- conditional with no recorded sources. */
CvpRecord
bcondRecord(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::CondBranch;
    rec.taken = false;
    rec.target = 0x2000;
    return rec;
}

/** BLR X30 -- indirect call through the link register. */
CvpRecord
blrX30(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::UncondIndirectBranch;
    rec.taken = true;
    rec.target = 0x3000;
    rec.addSrc(aarch64::kLinkReg);
    rec.addDst(aarch64::kLinkReg, pc + 4);
    return rec;
}

/** RET -- reads X30, writes nothing. */
CvpRecord
retRecord(Addr pc = 0x1000)
{
    CvpRecord rec;
    rec.pc = pc;
    rec.cls = InstClass::UncondIndirectBranch;
    rec.taken = true;
    rec.target = 0x4000;
    rec.addSrc(aarch64::kLinkReg);
    return rec;
}

ChampSimTrace
convertOneWith(ImprovementSet imps, const CvpRecord &rec)
{
    Cvp2ChampSim conv(imps);
    ChampSimTrace out;
    conv.convertOne(rec, out);
    return out;
}

// ---------------------------------------------------------------------

TEST(MapReg, AvoidsSpecialRegistersAndZero)
{
    std::set<RegId> seen;
    for (unsigned r = 0; r < aarch64::kNumRegs; ++r) {
        RegId m = Cvp2ChampSim::mapReg(static_cast<RegId>(r));
        EXPECT_NE(m, 0);
        EXPECT_NE(m, champsim::kStackPointer);
        EXPECT_NE(m, champsim::kFlags);
        EXPECT_NE(m, champsim::kInstructionPointer);
        EXPECT_NE(m, champsim::kOtherReg);
        EXPECT_TRUE(seen.insert(m).second) << "collision at " << r;
    }
}

TEST(InferBaseUpdate, PreIndexDetected)
{
    auto info = Cvp2ChampSim::inferBaseUpdate(ldrPreIndex());
    EXPECT_EQ(info.kind, BaseUpdateKind::Pre);
    EXPECT_EQ(info.baseReg, 0);
    EXPECT_EQ(info.dstIndex, 0u);
}

TEST(InferBaseUpdate, PostIndexDetected)
{
    auto info = Cvp2ChampSim::inferBaseUpdate(ldrPostIndex());
    EXPECT_EQ(info.kind, BaseUpdateKind::Post);
    EXPECT_EQ(info.baseReg, 0);
}

TEST(InferBaseUpdate, LoadPairIsNotWriteback)
{
    // LDP X1, X0, [X0]: X0 is src and dst but receives far-away data.
    CvpRecord rec;
    rec.cls = InstClass::Load;
    rec.ea = 0x8000;
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addDst(1, 0xdeadbeefcafeULL);
    rec.addDst(0, 0x123456789abcULL);   // loaded value, far from EA
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(rec).kind,
              BaseUpdateKind::None);
}

TEST(InferBaseUpdate, PointerChaseUsuallyRejected)
{
    CvpRecord rec;
    rec.cls = InstClass::Load;
    rec.ea = 0x10000;
    rec.accessSize = 8;
    rec.addSrc(8);
    rec.addDst(8, 0x90000);   // next pointer far away
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(rec).kind,
              BaseUpdateKind::None);
}

TEST(InferBaseUpdate, NoCandidateNoUpdate)
{
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(prefetchLoad()).kind,
              BaseUpdateKind::None);
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(ldpNoWb()).kind,
              BaseUpdateKind::None);
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(cmpRecord()).kind,
              BaseUpdateKind::None);
}

TEST(InferBaseUpdate, StoreWritebackDetected)
{
    // STR X2, [X0, #-16]!
    CvpRecord rec;
    rec.cls = InstClass::Store;
    rec.ea = 0x8000 - 16;
    rec.accessSize = 8;
    rec.addSrc(2);
    rec.addSrc(0);
    rec.addDst(0, 0x8000 - 16);
    EXPECT_EQ(Cvp2ChampSim::inferBaseUpdate(rec).kind, BaseUpdateKind::Pre);
}

// ---------------------------------------------------------------------
// Original converter defects.

TEST(OriginalConverter, KeepsOnlyFirstDestination)
{
    // The original converter keeps only the first CVP-1 destination.
    // For a writeback load that is the base register, so the base stays
    // pinned to memory latency in the unimproved traces (the defect the
    // base-update improvement exists to fix; DESIGN.md discusses the
    // ordering evidence).
    auto out = convertOneWith(kImpNone, ldrPreIndex());
    ASSERT_EQ(out.size(), 1u);
    const ChampSimRecord &cs = out[0];
    EXPECT_TRUE(cs.readsReg(Cvp2ChampSim::mapReg(0)));
    EXPECT_TRUE(cs.writesReg(Cvp2ChampSim::mapReg(0)));
    EXPECT_FALSE(cs.writesReg(Cvp2ChampSim::mapReg(1)));   // data dropped
    EXPECT_EQ(cs.numSrcMem(), 1u);
    EXPECT_EQ(cs.srcMem[0], ldrPreIndex().ea);

    Cvp2ChampSim conv(kImpNone);
    ChampSimTrace two;
    conv.convertOne(ldpNoWb(), two);
    EXPECT_EQ(conv.stats().droppedDstRegs, 1u);
}

TEST(OriginalConverter, InsertsX0IntoDestinationLessMem)
{
    for (const CvpRecord &rec : {prefetchLoad(), plainStore()}) {
        auto out = convertOneWith(kImpNone, rec);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_TRUE(out[0].writesReg(Cvp2ChampSim::mapReg(0)))
            << instClassName(rec.cls);
    }
    Cvp2ChampSim conv(kImpNone);
    ChampSimTrace out;
    conv.convertOne(prefetchLoad(), out);
    conv.convertOne(plainStore(), out);
    EXPECT_EQ(conv.stats().x0InsertedMem, 2u);
}

TEST(OriginalConverter, MisclassifiesBlrX30AsReturn)
{
    auto out = convertOneWith(kImpNone, blrX30());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Original),
              BranchType::Return);
}

TEST(OriginalConverter, DropsBranchSources)
{
    auto out = convertOneWith(kImpNone, cbzRecord());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].readsReg(Cvp2ChampSim::mapReg(5)));
    EXPECT_TRUE(out[0].readsReg(champsim::kFlags));
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Original),
              BranchType::Conditional);
}

TEST(OriginalConverter, NothingWritesFlags)
{
    auto out = convertOneWith(kImpNone, cmpRecord());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].writesReg(champsim::kFlags));
    EXPECT_EQ(out[0].destRegs[0], 0);   // no destination at all
}

TEST(OriginalConverter, OneToOneRecordCount)
{
    TraceGenerator gen(computeIntParams(3));
    CvpTrace in = gen.generate(20000);
    Cvp2ChampSim conv(kImpNone);
    ChampSimTrace out = conv.convert(in);
    EXPECT_EQ(out.size(), in.size());
    EXPECT_EQ(conv.stats().cvpInstructions, in.size());
    EXPECT_EQ(conv.stats().champsimInstructions, out.size());
}

// ---------------------------------------------------------------------
// Improvement contracts.

TEST(ImpMemRegs, KeepsAllDestinationsDropsX0)
{
    auto pair = convertOneWith(kImpMemRegs, ldpNoWb());
    ASSERT_EQ(pair.size(), 1u);
    EXPECT_TRUE(pair[0].writesReg(Cvp2ChampSim::mapReg(1)));
    EXPECT_TRUE(pair[0].writesReg(Cvp2ChampSim::mapReg(2)));
    // Destinations no longer leak into sources.
    EXPECT_FALSE(pair[0].readsReg(Cvp2ChampSim::mapReg(1)));

    auto pf = convertOneWith(kImpMemRegs, prefetchLoad());
    EXPECT_EQ(pf[0].destRegs[0], 0);
    auto st = convertOneWith(kImpMemRegs, plainStore());
    EXPECT_EQ(st[0].destRegs[0], 0);
}

TEST(ImpMemRegs, PreIndexKeepsBothDestinations)
{
    // Without base-update splitting, both X0 and X1 are destinations --
    // and both resolve at memory latency (the studied inaccuracy).
    auto out = convertOneWith(kImpMemRegs, ldrPreIndex());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].writesReg(Cvp2ChampSim::mapReg(0)));
    EXPECT_TRUE(out[0].writesReg(Cvp2ChampSim::mapReg(1)));
}

TEST(ImpBaseUpdate, PreIndexSplitsAluFirst)
{
    auto out = convertOneWith(kImpBaseUpdate | kImpMemRegs, ldrPreIndex());
    ASSERT_EQ(out.size(), 2u);
    const ChampSimRecord &alu = out[0];
    const ChampSimRecord &mem = out[1];
    EXPECT_EQ(alu.ip, 0x1000u);
    EXPECT_EQ(mem.ip, 0x1002u);
    EXPECT_FALSE(alu.isLoad());
    EXPECT_TRUE(alu.readsReg(Cvp2ChampSim::mapReg(0)));
    EXPECT_TRUE(alu.writesReg(Cvp2ChampSim::mapReg(0)));
    EXPECT_TRUE(mem.isLoad());
    EXPECT_TRUE(mem.writesReg(Cvp2ChampSim::mapReg(1)));
    EXPECT_FALSE(mem.writesReg(Cvp2ChampSim::mapReg(0)));
}

TEST(ImpBaseUpdate, PostIndexSplitsMemFirst)
{
    auto out = convertOneWith(kImpBaseUpdate | kImpMemRegs, ldrPostIndex());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].isLoad());
    EXPECT_EQ(out[0].ip, 0x1000u);
    EXPECT_EQ(out[1].ip, 0x1002u);
    EXPECT_TRUE(out[1].writesReg(Cvp2ChampSim::mapReg(0)));
}

TEST(ImpBaseUpdate, NoSplitWithoutWriteback)
{
    EXPECT_EQ(convertOneWith(kImpBaseUpdate, ldpNoWb()).size(), 1u);
    EXPECT_EQ(convertOneWith(kImpBaseUpdate, prefetchLoad()).size(), 1u);
}

TEST(ImpMemFootprint, LineCrossingGetsSecondAddress)
{
    CvpRecord rec;
    rec.cls = InstClass::Load;
    rec.ea = 0x8000 + 60;   // 8 bytes spanning 0x8000 and 0x8040 lines
    rec.accessSize = 8;
    rec.addSrc(0);
    rec.addDst(1, 0);
    auto out = convertOneWith(kImpMemFootprint, rec);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].numSrcMem(), 2u);
    EXPECT_EQ(out[0].srcMem[1], 0x8040u);

    rec.ea = 0x8000;        // aligned: one line only
    auto aligned = convertOneWith(kImpMemFootprint, rec);
    EXPECT_EQ(aligned[0].numSrcMem(), 1u);
}

TEST(ImpMemFootprint, PairTransferSizeCounted)
{
    // LDP at line+56: 16 bytes span two lines even though each register
    // is 8-byte aligned within its half.
    CvpRecord rec = ldpNoWb(0x1000, 0x8000 + 56);
    auto out = convertOneWith(kImpMemFootprint, rec);
    EXPECT_EQ(out[0].numSrcMem(), 2u);

    // Without the improvement only one address is conveyed.
    auto plain = convertOneWith(kImpNone, rec);
    EXPECT_EQ(plain[0].numSrcMem(), 1u);
}

TEST(ImpMemFootprint, WritebackRegExcludedFromTransferSize)
{
    // Pre-index LDR at line+60 transfers only 8 bytes (X1): the X0
    // "destination" is the writeback, not memory data.
    CvpRecord rec = ldrPreIndex(0x1000, 0x8000 + 48);   // ea = +60
    ASSERT_EQ(rec.ea % kLineBytes, 60u);
    auto out = convertOneWith(kImpMemFootprint, rec);
    // 8 bytes at +60 still crosses; but a naive size of 16 would also
    // cross at +52.  Verify the register count logic via a non-crossing
    // placement instead: EA at +48 with two dsts, one of them writeback.
    CvpRecord mid = ldrPreIndex(0x1000, 0x8000 + 36);   // ea = +48
    ASSERT_EQ(mid.ea % kLineBytes, 48u);
    auto out2 = convertOneWith(kImpMemFootprint, mid);
    // 8 bytes at +48 does not cross; 16 would.  Writeback excluded: one
    // address.
    EXPECT_EQ(out2[0].numSrcMem(), 1u);
    EXPECT_EQ(out[0].numSrcMem(), 2u);
}

TEST(ImpMemFootprint, ZvaAligned)
{
    CvpRecord rec;
    rec.cls = InstClass::Store;
    rec.ea = 0x8020;        // architecturally legal unaligned DC ZVA
    rec.accessSize = 64;
    rec.addSrc(0);
    auto out = convertOneWith(kImpMemFootprint, rec);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].destMem[0], 0x8000u);
    EXPECT_EQ(out[0].numDstMem(), 1u);   // one line by definition
}

TEST(ImpCallStack, BlrX30IsIndirectCall)
{
    auto out = convertOneWith(kImpCallStack, blrX30());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Original),
              BranchType::IndirectCall);
    // Real returns still classify as returns.
    auto ret = convertOneWith(kImpCallStack, retRecord());
    EXPECT_EQ(deduceBranchType(ret[0], DeductionRules::Original),
              BranchType::Return);
}

TEST(ImpBranchRegs, ConditionalKeepsGprSource)
{
    auto out = convertOneWith(kImpBranchRegs, cbzRecord());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].readsReg(Cvp2ChampSim::mapReg(5)));
    EXPECT_FALSE(out[0].readsReg(champsim::kFlags));
    // The documented deduction conflict: original rules call this an
    // indirect jump; the patched rules keep it conditional.
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Original),
              BranchType::IndirectJump);
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Patched),
              BranchType::Conditional);
}

TEST(ImpBranchRegs, FlagConditionalStillReadsFlags)
{
    auto out = convertOneWith(kImpBranchRegs, bcondRecord());
    EXPECT_TRUE(out[0].readsReg(champsim::kFlags));
    EXPECT_EQ(deduceBranchType(out[0], DeductionRules::Patched),
              BranchType::Conditional);
}

TEST(ImpBranchRegs, IndirectBranchesCarryRealSources)
{
    CvpRecord br;
    br.cls = InstClass::UncondIndirectBranch;
    br.pc = 0x1000;
    br.taken = true;
    br.target = 0x2000;
    br.addSrc(9);

    auto orig = convertOneWith(kImpNone, br);
    EXPECT_TRUE(orig[0].readsReg(champsim::kOtherReg));
    EXPECT_FALSE(orig[0].readsReg(Cvp2ChampSim::mapReg(9)));

    auto imp = convertOneWith(kImpBranchRegs, br);
    EXPECT_FALSE(imp[0].readsReg(champsim::kOtherReg));
    EXPECT_TRUE(imp[0].readsReg(Cvp2ChampSim::mapReg(9)));
    EXPECT_EQ(deduceBranchType(imp[0], DeductionRules::Patched),
              BranchType::IndirectJump);
}

TEST(ImpFlagReg, CompareWritesFlags)
{
    auto out = convertOneWith(kImpFlagReg, cmpRecord());
    EXPECT_TRUE(out[0].writesReg(champsim::kFlags));

    // FP compares too.
    CvpRecord fcmp;
    fcmp.cls = InstClass::Fp;
    fcmp.addSrc(33);
    fcmp.addSrc(34);
    auto fp = convertOneWith(kImpFlagReg, fcmp);
    EXPECT_TRUE(fp[0].writesReg(champsim::kFlags));

    // Instructions with a destination are untouched.
    CvpRecord add;
    add.cls = InstClass::Alu;
    add.addSrc(1);
    add.addDst(2, 7);
    auto a = convertOneWith(kImpFlagReg, add);
    EXPECT_FALSE(a[0].writesReg(champsim::kFlags));
}

TEST(ImpFlagReg, RestoresCmpToBranchDependency)
{
    // CMP ; B.EQ -- with flag-reg the branch's flag source has a
    // producer.
    Cvp2ChampSim conv(kImpFlagReg);
    ChampSimTrace out;
    conv.convertOne(cmpRecord(0x1000), out);
    conv.convertOne(bcondRecord(0x1004), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].writesReg(champsim::kFlags));
    EXPECT_TRUE(out[1].readsReg(champsim::kFlags));
}

// ---------------------------------------------------------------------
// Whole-trace properties.

class SuiteConversion : public ::testing::TestWithParam<ImprovementSet>
{};

TEST_P(SuiteConversion, WellFormedUnderAllRuleSets)
{
    ImprovementSet imps = GetParam();
    DeductionRules rules = (imps & kImpBranchRegs)
                               ? DeductionRules::Patched
                               : DeductionRules::Original;
    TraceGenerator gen(serverParams(91));
    CvpTrace in = gen.generate(30000);
    Cvp2ChampSim conv(imps);
    ChampSimTrace out = conv.convert(in);
    ASSERT_GE(out.size(), in.size());

    std::uint64_t branches = 0;
    for (const ChampSimRecord &cs : out) {
        if (cs.isBranch) {
            ++branches;
            BranchType t = deduceBranchType(cs, rules);
            EXPECT_NE(t, BranchType::NotBranch);
        } else {
            // Non-branches must never write the instruction pointer.
            EXPECT_FALSE(cs.writesReg(champsim::kInstructionPointer));
        }
        // The X56 "reads other" marker is a branch-typing device only.
        if (!cs.isBranch) {
            EXPECT_FALSE(cs.readsReg(champsim::kOtherReg));
        }
    }
    EXPECT_GT(branches, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sets, SuiteConversion,
    ::testing::Values(kImpNone, kImpMemRegs, kImpBaseUpdate,
                      kImpMemFootprint, kImpCallStack, kImpBranchRegs,
                      kImpFlagReg, kMemoryImps, kBranchImps, kAllImps,
                      kIpc1Imps));

TEST(Conversion, DeterministicAndCountsConsistent)
{
    TraceGenerator gen(computeFpParams(93));
    CvpTrace in = gen.generate(20000);
    Cvp2ChampSim a(kAllImps), b(kAllImps);
    ChampSimTrace out1 = a.convert(in);
    ChampSimTrace out2 = b.convert(in);
    ASSERT_EQ(out1.size(), out2.size());
    for (std::size_t i = 0; i < out1.size(); ++i)
        ASSERT_TRUE(out1[i] == out2[i]);
    EXPECT_EQ(a.stats().champsimInstructions, out1.size());
    EXPECT_EQ(a.stats().splitMicroOps,
              a.stats().baseUpdatePre + a.stats().baseUpdatePost);
    EXPECT_EQ(out1.size(), in.size() + a.stats().splitMicroOps);
}

TEST(Conversion, BaseUpdateSplitsHappenOnSyntheticTraces)
{
    WorkloadParams p = computeIntParams(95);
    p.baseUpdateFrac = 0.4;
    CvpTrace in = TraceGenerator(p).generate(30000);
    Cvp2ChampSim conv(kAllImps);
    ChampSimTrace out = conv.convert(in);
    EXPECT_GT(conv.stats().baseUpdatePre, 200u);
    EXPECT_GT(conv.stats().baseUpdatePost, 200u);
    EXPECT_GT(out.size(), in.size());
}

TEST(Conversion, CallStackFixOnlyAffectsBlrX30Traces)
{
    WorkloadParams p = serverParams(97);
    p.blrX30Frac = 0.8;
    p.indirectCallFrac = 0.4;
    CvpTrace in = TraceGenerator(p).generate(30000);

    Cvp2ChampSim broken(kImpNone);
    ChampSimTrace bad = broken.convert(in);
    Cvp2ChampSim fixed(kImpCallStack);
    ChampSimTrace good = fixed.convert(in);

    EXPECT_GT(broken.stats().callsMisclassified, 50u);
    EXPECT_EQ(fixed.stats().callsMisclassified, 0u);
    EXPECT_GT(fixed.stats().callsReclassified, 50u);

    // Count deduced returns: the broken trace has spurious ones.
    auto count_returns = [](const ChampSimTrace &t) {
        std::uint64_t n = 0;
        for (const auto &cs : t)
            if (cs.isBranch && deduceBranchType(
                                   cs, DeductionRules::Original) ==
                                   BranchType::Return)
                ++n;
        return n;
    };
    EXPECT_GT(count_returns(bad), count_returns(good));
}

TEST(Conversion, IntoBufferReplacesContentsAndKeepsCapacity)
{
    CvpTrace in = TraceGenerator(computeIntParams(3)).generate(4000);
    ChampSimTrace fresh = Cvp2ChampSim(kAllImps).convert(in);
    MappedChampSimTrace buffer(2 * fresh.size() + 5, ChampSimRecord{});
    buffer[0].ip = 0xdead;   // stale contents must not survive
    const std::size_t capacity = buffer.capacity();
    Cvp2ChampSim(kAllImps).convert(in, buffer);
    EXPECT_EQ(ChampSimTrace(buffer.begin(), buffer.end()), fresh);
    EXPECT_EQ(buffer.capacity(), capacity);
}

// ---------------------------------------------------------------------
// Inert improvements: the fixes a trace gives nothing to change.

/** Converting @p trace under @p a and under @p b gives the same bytes. */
bool
sameConversion(const CvpTrace &trace, ImprovementSet a, ImprovementSet b)
{
    return Cvp2ChampSim(a).convert(trace) == Cvp2ChampSim(b).convert(trace);
}

/** An ADD X2, X1 (a destination, so nothing for flag-reg) then @p rec. */
CvpTrace
afterAdd(const CvpRecord &rec)
{
    CvpRecord add;
    add.pc = 0x0ffc;
    add.cls = InstClass::Alu;
    add.addSrc(1);
    add.addDst(2, 7);
    return {add, rec};
}

TEST(InertImprovements, HandBuiltRecordsFlipEachPredicate)
{
    const ImprovementSet both = kImpCallStack | kImpFlagReg;
    EXPECT_EQ(inertImprovements({}), both);
    EXPECT_EQ(inertImprovements(afterAdd(retRecord())), both);
    EXPECT_EQ(inertImprovements(afterAdd(cbzRecord())), both);

    // BLR X30, and an X30-reading BR with a destination: call-stack
    // makes each something other than a return.
    CvpRecord br_x30 = retRecord();
    br_x30.addDst(5, 0x77);
    for (const CvpRecord &rec : {blrX30(), br_x30}) {
        const CvpTrace trace = afterAdd(rec);
        EXPECT_EQ(inertImprovements(trace), kImpFlagReg);
        EXPECT_FALSE(sameConversion(trace, kImpCallStack, kImpNone));
    }

    // A destination-less compare gives flag-reg its destination.
    const CvpTrace cmp = afterAdd(cmpRecord());
    EXPECT_EQ(inertImprovements(cmp), kImpCallStack);
    EXPECT_FALSE(sameConversion(cmp, kImpFlagReg, kImpNone));
    EXPECT_EQ(inertImprovements({cmpRecord(), blrX30()}), kImpNone);

    // The four other fixes are never called inert, even where a trace
    // gives them nothing to change.
    for (const CvpRecord &rec : {retRecord(), cbzRecord(), plainStore()})
        EXPECT_EQ(inertImprovements(afterAdd(rec)) & ~both, kImpNone);
}

/**
 * For every trace of both suites and every Fig. 1 set S, converting
 * under S and under S & ~inert gives the same bytes; and each inert
 * verdict is exact: a fix not called inert changes the No_imp bytes.
 */
TEST(InertImprovements, ExactOverBothSuitesAndEveryFigureOneSet)
{
    std::vector<TraceSpec> suite = cvp1PublicSuite(20000);
    for (const TraceSpec &spec : ipc1Suite(20000))
        suite.push_back(spec);
    ASSERT_EQ(suite.size(), 185u);
    std::size_t call_stack_inert = 0;
    for (const TraceSpec &spec : suite) {
        const CvpTrace trace =
            TraceGenerator(spec.params).generate(spec.length);
        const ImprovementSet inert = inertImprovements(trace);
        call_stack_inert += (inert & kImpCallStack) != 0;
        for (ImprovementSet fix : {kImpCallStack, kImpFlagReg})
            EXPECT_EQ((inert & fix) != 0,
                      sameConversion(trace, fix, kImpNone))
                << spec.name << " " << improvementSetName(fix);
        for (const NamedSet &set : figureOneSets()) {
            if (set.set & inert) {
                EXPECT_TRUE(sameConversion(trace, set.set,
                                           set.set & ~inert))
                    << spec.name << " " << set.name;
            }
        }
    }
    // Both verdicts occur: most traces carry no BLR X30.
    EXPECT_GT(call_stack_inert, suite.size() / 2);
    EXPECT_LT(call_stack_inert, suite.size());
}

TEST(ImprovementNames, ParseRoundTrip)
{
    for (const char *name :
         {"No_imp", "All_imps", "Memory_imps", "Branch_imps", "IPC1_imps",
          "imp_mem-regs", "imp_base-update", "imp_mem-footprint",
          "imp_call-stack", "imp_branch-regs", "imp_flag-regs"}) {
        ImprovementSet set = 0;
        ASSERT_TRUE(parseImprovementSet(name, set)) << name;
        EXPECT_EQ(improvementSetName(set), name);
    }
    ImprovementSet set = 0;
    EXPECT_FALSE(parseImprovementSet("bogus", set));
}

} // namespace
} // namespace trb
