#include "convert/cvp2champsim.hh"

#include <cstdlib>
#include <utility>

#include "common/logging.hh"

namespace trb
{

namespace
{

/**
 * An X30-reading indirect branch that writes a register (BLR X30): the
 * original converter calls it a return, call-stack a call.  The only
 * records call-stack changes.
 */
bool
callStackChanges(const CvpRecord &rec)
{
    return rec.cls == InstClass::UncondIndirectBranch &&
           rec.readsReg(aarch64::kLinkReg) && rec.numDst != 0;
}

/**
 * A destination-less Alu/SlowAlu/Fp record (a compare): flag-reg gives
 * it the flags as destination.  The only records flag-reg changes.
 */
bool
flagRegChanges(const CvpRecord &rec)
{
    return rec.numDst == 0 &&
           (rec.cls == InstClass::Alu || rec.cls == InstClass::SlowAlu ||
            rec.cls == InstClass::Fp);
}

} // namespace

ImprovementSet
inertImprovements(const CvpTrace &trace)
{
    ImprovementSet inert = kImpCallStack | kImpFlagReg;
    for (const CvpRecord &rec : trace) {
        if (callStackChanges(rec))
            inert &= ~kImpCallStack;
        else if (flagRegChanges(rec))
            inert &= ~kImpFlagReg;
        else
            continue;
        if (inert == kImpNone)
            break;
    }
    return inert;
}

Cvp2ChampSim::Cvp2ChampSim(ImprovementSet imps) : imps_(imps)
{
}

void
Cvp2ChampSim::reset()
{
    stats_ = ConvStats{};
}

RegId
Cvp2ChampSim::mapReg(RegId cvp_reg)
{
    RegId m = static_cast<RegId>(cvp_reg + 1);
    switch (m) {
      case champsim::kStackPointer: return 201;
      case champsim::kFlags: return 202;
      case champsim::kInstructionPointer: return 203;
      case champsim::kOtherReg: return 204;
      default: return m;
    }
}

BaseUpdateInfo
Cvp2ChampSim::inferBaseUpdate(const CvpRecord &rec)
{
    BaseUpdateInfo info;
    if (!isMem(rec.cls))
        return info;
    for (unsigned d = 0; d < rec.numDst; ++d) {
        if (!rec.readsReg(rec.dst[d]))
            continue;   // not a base candidate: written but never read
        std::uint64_t v = rec.dstValue[d];
        if (v == rec.ea) {
            info.kind = BaseUpdateKind::Pre;
            info.baseReg = rec.dst[d];
            info.dstIndex = d;
            return info;
        }
        auto diff = static_cast<std::int64_t>(v - rec.ea);
        if (diff != 0 && diff >= -kMaxImmediate && diff <= kMaxImmediate) {
            info.kind = BaseUpdateKind::Post;
            info.baseReg = rec.dst[d];
            info.dstIndex = d;
            return info;
        }
        // A self-loading register whose value lands far from the address
        // (a pointer chase) is not a writeback: keep looking.
    }
    return info;
}

ChampSimTrace
Cvp2ChampSim::convert(const CvpTrace &in)
{
    ChampSimTrace out;
    convertInto(in, out);
    return out;
}

void
Cvp2ChampSim::convert(const CvpTrace &in, MappedChampSimTrace &out)
{
    convertInto(in, out);
}

void
Cvp2ChampSim::convertOne(const CvpRecord &rec, ChampSimTrace &out)
{
    append(rec, out);
}

template <typename Trace>
void
Cvp2ChampSim::convertInto(const CvpTrace &in, Trace &out)
{
    out.clear();
    out.reserve(in.size() + in.size() / 8);
    for (const CvpRecord &rec : in)
        append(rec, out);
}

template <typename Trace>
void
Cvp2ChampSim::append(const CvpRecord &rec, Trace &out)
{
    ++stats_.cvpInstructions;
    std::size_t before = out.size();

    // Records are built in place, zeroed by emplace_back.
    if (isBranch(rec.cls))
        convertBranch(rec, out.emplace_back());
    else if (isMem(rec.cls))
        convertMem(rec, out);
    else
        convertAlu(rec, out.emplace_back());

    stats_.champsimInstructions += out.size() - before;
}

void
Cvp2ChampSim::convertBranch(const CvpRecord &rec, ChampSimRecord &cs)
{
    cs.ip = rec.pc;
    cs.isBranch = 1;
    cs.branchTaken = rec.taken ? 1 : 0;

    auto addCvpSources = [&](bool &added_any) {
        added_any = false;
        for (unsigned i = 0; i < rec.numSrc; ++i) {
            if (!cs.addSrcReg(mapReg(rec.src[i])))
                ++stats_.truncatedSrcRegs;
            else
                added_any = true;
        }
    };

    switch (rec.cls) {
      case InstClass::CondBranch: {
        cs.addDstReg(champsim::kInstructionPointer);
        cs.addSrcReg(champsim::kInstructionPointer);
        if (has(kImpBranchRegs) && rec.numSrc > 0) {
            // CBZ/TBZ-style: depend on the real producer, not on flags.
            bool any = false;
            addCvpSources(any);
            if (any)
                ++stats_.branchSrcsPreserved;
        } else {
            cs.addSrcReg(champsim::kFlags);
        }
        break;
      }

      case InstClass::UncondDirectBranch: {
        if (rec.writesReg(aarch64::kLinkReg)) {
            // BL: direct call.
            cs.addSrcReg(champsim::kInstructionPointer);
            cs.addSrcReg(champsim::kStackPointer);
            cs.addDstReg(champsim::kInstructionPointer);
            cs.addDstReg(champsim::kStackPointer);
            // X30 cannot also be written: both ChampSim destination
            // slots are taken (the paper's acknowledged limitation).
        } else {
            // B: direct jump.
            cs.addSrcReg(champsim::kInstructionPointer);
            cs.addDstReg(champsim::kInstructionPointer);
        }
        break;
      }

      case InstClass::UncondIndirectBranch: {
        bool reads_x30 = rec.readsReg(aarch64::kLinkReg);
        bool writes_x30 = rec.writesReg(aarch64::kLinkReg);
        bool is_return =
            reads_x30 && !(has(kImpCallStack) && callStackChanges(rec));
        if (is_return) {
            // RET: reads SP, writes SP+IP.
            cs.addSrcReg(champsim::kStackPointer);
            cs.addDstReg(champsim::kInstructionPointer);
            cs.addDstReg(champsim::kStackPointer);
            ++stats_.returnsKept;
            if (!has(kImpCallStack) && writes_x30)
                ++stats_.callsMisclassified;   // BLR X30 broken
        } else if (writes_x30) {
            // BLR: indirect call -- reads SP+something, writes SP+IP.
            cs.addSrcReg(champsim::kStackPointer);
            cs.addDstReg(champsim::kInstructionPointer);
            cs.addDstReg(champsim::kStackPointer);
            if (has(kImpBranchRegs)) {
                bool any = false;
                addCvpSources(any);
                if (any)
                    ++stats_.branchSrcsPreserved;
                else
                    cs.addSrcReg(champsim::kOtherReg);
            } else {
                cs.addSrcReg(champsim::kOtherReg);
            }
            if (reads_x30 && has(kImpCallStack))
                ++stats_.callsReclassified;
        } else {
            // BR: indirect jump -- writes IP, reads something else.
            cs.addDstReg(champsim::kInstructionPointer);
            if (has(kImpBranchRegs) && rec.numSrc > 0) {
                bool any = false;
                addCvpSources(any);
                if (any)
                    ++stats_.branchSrcsPreserved;
                else
                    cs.addSrcReg(champsim::kOtherReg);
            } else {
                cs.addSrcReg(champsim::kOtherReg);
            }
        }
        break;
      }

      default:
        trb_panic("non-branch class in convertBranch");
    }
}

template <typename Trace>
void
Cvp2ChampSim::convertMem(const CvpRecord &rec, Trace &out)
{
    const bool is_load = rec.cls == InstClass::Load;

    // Addressing-mode inference feeds both base-update and mem-footprint.
    BaseUpdateInfo bu;
    if (has(kImpBaseUpdate) || has(kImpMemFootprint))
        bu = inferBaseUpdate(rec);

    // ---- Destination and source register lists. ----
    ChampSimRecord &mem = out.emplace_back();
    mem.ip = rec.pc;

    if (has(kImpMemRegs)) {
        for (unsigned i = 0; i < rec.numSrc; ++i)
            if (!mem.addSrcReg(mapReg(rec.src[i])))
                ++stats_.truncatedSrcRegs;
        for (unsigned i = 0; i < rec.numDst; ++i) {
            if (has(kImpBaseUpdate) && bu.kind != BaseUpdateKind::None &&
                i == bu.dstIndex)
                continue;   // the split ALU micro-op owns the base
            if (!mem.addDstReg(mapReg(rec.dst[i])))
                ++stats_.truncatedDstRegs;
        }
    } else {
        // Original behaviour: one destination at most; extra CVP-1
        // destinations leak into the source list; destination-less
        // memory instructions are given X0.
        for (unsigned i = 0; i < rec.numSrc; ++i)
            if (!mem.addSrcReg(mapReg(rec.src[i])))
                ++stats_.truncatedSrcRegs;
        if (rec.numDst == 0) {
            mem.addDstReg(mapReg(0));
            ++stats_.x0InsertedMem;
        } else {
            // Only the first CVP-1 destination survives; the rest are
            // simply lost, so dependencies through them disappear (the
            // paper's Section 3.1.1 defect).
            bool keep_first = true;
            for (unsigned i = 0; i < rec.numDst; ++i) {
                bool owned_by_split = has(kImpBaseUpdate) &&
                                      bu.kind != BaseUpdateKind::None &&
                                      i == bu.dstIndex;
                if (owned_by_split)
                    continue;
                if (keep_first) {
                    mem.addDstReg(mapReg(rec.dst[i]));
                    keep_first = false;
                } else {
                    ++stats_.droppedDstRegs;
                }
            }
        }
    }

    // ---- Memory addresses. ----
    Addr ea = rec.ea;
    if (has(kImpMemFootprint) && !is_load && rec.accessSize >= kLineBytes) {
        // DC ZVA zeroes one naturally-aligned line by definition.
        if (ea != lineAddr(ea))
            ++stats_.zvaAligned;
        ea = lineAddr(ea);
    }
    if (is_load)
        mem.addSrcMem(ea);
    else
        mem.addDstMem(ea);

    if (has(kImpMemFootprint))
        applyFootprint(rec, bu, mem);

    // ---- Base-update split. ----
    if (has(kImpBaseUpdate) && bu.kind != BaseUpdateKind::None) {
        // The ALU micro-op that updates the base goes before the access
        // for a pre-index (update-then-access) and after it for a
        // post-index; the first of the pair has the CVP-1 PC, the
        // second PC+2.
        const bool pre = bu.kind == BaseUpdateKind::Pre;
        ++stats_.splitMicroOps;
        ++(pre ? stats_.baseUpdatePre : stats_.baseUpdatePost);
        out.emplace_back();   // may move the memory record
        ChampSimRecord *pair = &out[out.size() - 2];
        if (pre)
            std::swap(pair[0], pair[1]);
        ChampSimRecord &alu = pair[pre ? 0 : 1];
        const RegId base = mapReg(bu.baseReg);
        alu.addSrcReg(base);
        alu.addDstReg(base);
        pair[0].ip = rec.pc;
        pair[1].ip = rec.pc + 2;
    }
}

void
Cvp2ChampSim::applyFootprint(const CvpRecord &rec, const BaseUpdateInfo &bu,
                             ChampSimRecord &cs)
{
    const bool is_load = rec.cls == InstClass::Load;

    // Transfer size: bytes-per-register times memory-populated registers,
    // which excludes an inferred writeback base.
    unsigned regs;
    if (is_load) {
        regs = rec.numDst;
        if (bu.kind != BaseUpdateKind::None && regs > 0)
            --regs;
    } else {
        // Stores list the base and the data registers as sources.
        regs = rec.numSrc > 1 ? rec.numSrc - 1 : 1;
        if (regs > 2)
            regs = 2;
    }
    if (regs == 0)
        regs = 1;   // prefetch: the line is still touched

    Addr ea = is_load ? cs.srcMem[0] : cs.destMem[0];
    std::uint64_t total = static_cast<std::uint64_t>(rec.accessSize) * regs;
    if (total == 0)
        return;
    if (lineNum(ea) == lineNum(ea + total - 1))
        return;

    Addr second = lineAddr(ea) + kLineBytes;
    bool ok = is_load ? cs.addSrcMem(second) : cs.addDstMem(second);
    if (ok)
        ++stats_.lineCrossing;
}

void
Cvp2ChampSim::convertAlu(const CvpRecord &rec, ChampSimRecord &cs)
{
    cs.ip = rec.pc;
    for (unsigned i = 0; i < rec.numSrc; ++i)
        if (!cs.addSrcReg(mapReg(rec.src[i])))
            ++stats_.truncatedSrcRegs;
    for (unsigned i = 0; i < rec.numDst; ++i)
        if (!cs.addDstReg(mapReg(rec.dst[i])))
            ++stats_.truncatedDstRegs;
    if (has(kImpFlagReg) && flagRegChanges(rec)) {
        // Compares and flag-setting arithmetic: make the dependency from
        // conditional branches through the flag register real.
        cs.addDstReg(champsim::kFlags);
        ++stats_.flagDstsAdded;
    }
}

} // namespace trb
