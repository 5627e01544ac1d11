#include "flow/cfg.hh"

#include <array>
#include <map>
#include <tuple>

#include "trace/branch_deduce.hh"

namespace trb
{
namespace flow
{

const char *
edgeKindName(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::Fallthrough: return "fallthrough";
      case EdgeKind::Taken: return "taken";
      case EdgeKind::Call: return "call";
      case EdgeKind::Return: return "return";
    }
    return "?";
}

namespace
{

/** Pending stale-definition state of one register. */
struct StaleState
{
    bool pending = false;
    Addr defPc = 0;
    std::uint32_t defBlock = 0;
};

} // namespace

Cfg
buildCfg(ChampSimView trace, std::uint64_t maxContiguousStep)
{
    // Real instructions are 4-byte spaced and the converter parks the
    // second µop of a base-update split at pc+2, but conditionally
    // emitted helper µops can skip a slot or two -- so contiguity is a
    // small forward window, not an exact step.
    auto contiguousStep = [maxContiguousStep](Addr from, Addr to) {
        return to > from && to - from <= maxContiguousStep;
    };

    Cfg cfg;
    if (trace.empty())
        return cfg;

    // Pass 1: canonical per-PC signatures (union over occurrences) and
    // the leader set.  A record leads a block when it is the trace
    // entry, follows any branch, or follows a fall-through
    // discontinuity (the teleport case -- it still starts a block, just
    // one with no explaining edge).
    std::unordered_set<Addr> leaders;
    leaders.insert(trace[0].ip);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ChampSimRecord &rec = trace[i];
        PcSig &sig = cfg.pcSigs[rec.ip];
        ++sig.occurrences;
        sig.isBranch = sig.isBranch || rec.isBranch != 0;
        for (RegId d : rec.destRegs)
            if (d != 0)
                sig.dsts.set(d);
        for (RegId s : rec.srcRegs)
            if (s != 0)
                sig.srcs.set(s);
        if (i + 1 < trace.size() &&
            (rec.isBranch != 0 ||
             !contiguousStep(rec.ip, trace[i + 1].ip)))
            leaders.insert(trace[i + 1].ip);
    }

    // Pass 2: blocks, edges, and the whole-program facts.
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>,
             std::uint32_t>
        edgeIndex;
    std::unordered_map<Addr, std::uint32_t> returnIndex;
    std::array<StaleState, kRegSpace> stale = {};

    auto blockIndex = [&](Addr pc, std::uint64_t index) {
        auto it = cfg.blockAt.find(pc);
        if (it != cfg.blockAt.end())
            return it->second;
        auto idx = static_cast<std::uint32_t>(cfg.blocks.size());
        cfg.blockAt.emplace(pc, idx);
        BasicBlock block;
        block.start = pc;
        block.end = pc;
        cfg.blocks.push_back(std::move(block));
        cfg.firstSeen.push_back(index);
        cfg.fallExits.emplace_back();
        cfg.succs.emplace_back();
        cfg.preds.emplace_back();
        return idx;
    };

    auto addEdge = [&](std::uint32_t from, std::uint32_t to,
                       EdgeKind kind) {
        auto key = std::make_tuple(from, to,
                                   static_cast<std::uint8_t>(kind));
        auto it = edgeIndex.find(key);
        if (it == edgeIndex.end()) {
            auto idx = static_cast<std::uint32_t>(cfg.edges.size());
            cfg.edges.push_back({from, to, kind, 1});
            cfg.succs[from].push_back(idx);
            cfg.preds[to].push_back(idx);
            edgeIndex.emplace(key, idx);
        } else {
            ++cfg.edges[it->second].count;
        }
    };

    auto addFallExit = [&](std::uint32_t from, Addr exitPc, Addr targetPc,
                           bool contiguous) {
        for (FallthroughExit &exit : cfg.fallExits[from]) {
            if (exit.exitPc == exitPc && exit.targetPc == targetPc) {
                ++exit.count;
                return;
            }
        }
        cfg.fallExits[from].push_back({exitPc, targetPc, 1, contiguous});
    };

    std::uint32_t cur = 0;
    std::vector<Addr> occPcs;
    occPcs.reserve(64);

    auto endOccurrence = [&](const ChampSimRecord &last) {
        BasicBlock &block = cfg.blocks[cur];
        if (occPcs.size() > block.memberPcs.size()) {
            block.memberPcs = occPcs;
            block.numUops = static_cast<std::uint32_t>(occPcs.size());
            block.end = occPcs.back();
            block.endsInBranch = last.isBranch != 0;
            block.terminator =
                deduceBranchType(last, DeductionRules::Patched);
        }
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ChampSimRecord &rec = trace[i];

        if (i == 0) {
            cur = blockIndex(rec.ip, 0);
            cfg.entryBlock = cur;
            ++cfg.blocks[cur].execCount;
        } else if (leaders.count(rec.ip) != 0) {
            const ChampSimRecord &prev = trace[i - 1];
            endOccurrence(prev);

            std::uint32_t from = cur;
            std::uint32_t to = blockIndex(rec.ip, i);
            ++cfg.blocks[to].entries;

            bool explained = false;
            EdgeKind kind = EdgeKind::Fallthrough;
            if (prev.isBranch != 0 && prev.branchTaken != 0) {
                BranchType t =
                    deduceBranchType(prev, DeductionRules::Patched);
                if (t == BranchType::DirectCall ||
                    t == BranchType::IndirectCall) {
                    kind = EdgeKind::Call;
                    cfg.callSiteReturnPcs.insert(prev.ip + 4);
                } else if (t == BranchType::Return) {
                    kind = EdgeKind::Return;
                    auto [it, fresh] = returnIndex.try_emplace(
                        rec.ip,
                        static_cast<std::uint32_t>(
                            cfg.returnTargets.size()));
                    if (fresh)
                        cfg.returnTargets.push_back(
                            {rec.ip, 0, i - 1, prev.ip});
                    ++cfg.returnTargets[it->second].count;
                } else {
                    kind = EdgeKind::Taken;
                }
                explained = true;
            } else {
                bool contiguous = contiguousStep(prev.ip, rec.ip);
                addFallExit(from, prev.ip, rec.ip, contiguous);
                if (contiguous) {
                    kind = EdgeKind::Fallthrough;
                    explained = true;
                } else {
                    ++cfg.teleports;
                }
            }
            if (explained) {
                addEdge(from, to, kind);
                ++cfg.blocks[to].explainedEntries;
            }
            cur = to;
            ++cfg.blocks[to].execCount;
            occPcs.clear();
        }

        ++cfg.blocks[cur].uopCount;
        occPcs.push_back(rec.ip);

        // -- stale-definition tracking ---------------------------------
        // Reads first: a read of a register whose canonical producer
        // dropped its destination at an earlier occurrence, observed in
        // a *different* block, is the cross-block stale-def witness.
        for (RegId r : rec.srcRegs) {
            if (r == 0)
                continue;
            StaleState &st = stale[r];
            if (st.pending && st.defBlock != cur) {
                StaleRead ev;
                ev.usePc = rec.ip;
                ev.defPc = st.defPc;
                ev.useIndex = i;
                ev.reg = r;
                ev.useBlock = cur;
                ev.defBlock = st.defBlock;
                if (r == champsim::kFlags)
                    cfg.staleFlagReads.push_back(ev);
                else
                    cfg.staleReads.push_back(ev);
                st.pending = false;
            }
        }
        // Then the defs: every canonical destination of this PC either
        // materialises (freshening the register) or was dropped by this
        // occurrence (staling it).  A drop with both destination slots
        // occupied is ChampSim-format truncation (the record physically
        // holds two destinations), tolerated like the converter's
        // truncatedDstRegs counter; a drop with a slot *free* has no
        // such excuse and is the witnessed defect.
        const PcSig &sig = cfg.pcSigs[rec.ip];
        if (sig.dsts.any()) {
            unsigned ndst = 0;
            for (RegId d : rec.destRegs)
                if (d != 0)
                    ++ndst;
            for (std::size_t r = 1; r < kRegSpace; ++r) {
                if (!sig.dsts.test(r))
                    continue;
                StaleState &st = stale[r];
                if (rec.writesReg(static_cast<RegId>(r))) {
                    st.pending = false;
                } else if (ndst < champsim::kMaxDst) {
                    st.pending = true;
                    st.defPc = rec.ip;
                    st.defBlock = cur;
                }
            }
        }

        // -- flags statistics ------------------------------------------
        if (rec.writesReg(champsim::kFlags)) {
            if (cfg.flagsDefs == 0)
                cfg.firstFlagsDefIndex = i;
            ++cfg.flagsDefs;
        }
        if (rec.readsReg(champsim::kFlags))
            ++cfg.flagsReads;
    }
    endOccurrence(trace[trace.size() - 1]);
    return cfg;
}

} // namespace flow
} // namespace trb
