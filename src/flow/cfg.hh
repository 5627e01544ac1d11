/**
 * @file
 * trb::flow -- whole-program CFG reconstruction over converted µop
 * streams.
 *
 * One linear pass over a ChampSim trace recovers the static control-flow
 * graph the dynamic stream is an unrolling of: basic blocks keyed by
 * their first PC (leaders are the trace entry, every record following a
 * branch, and every fall-through discontinuity), edges from observed
 * taken-branch targets plus contiguous static fall-through, with call
 * and return edges classified through the patched deduction rules.
 *
 * The same pass collects the whole-program facts the CFG lint rules
 * need and a streaming scan cannot see:
 *
 *  - a canonical register signature per static PC (the union of source
 *    and destination registers over every dynamic occurrence), so an
 *    occurrence that *drops* a destination is a witnessed stale
 *    definition, reported when a later block reads the register;
 *  - per-block entry provenance (edge-explained vs teleported), the
 *    unreachable-block evidence;
 *  - per-block fall-through exit points, the inconsistent-fall-through
 *    evidence;
 *  - the call-site fall-through set versus observed return targets, the
 *    call/return-edge balance evidence;
 *  - per-block dynamic memory summaries (load/store mix, stride
 *    classes, cacheline footprint).
 *
 * Blocks, edges and facts are all in stream-discovery order, so the
 * whole structure is deterministic for a given trace regardless of
 * TRB_JOBS (the builder itself is single-threaded per trace).
 */

#ifndef TRB_FLOW_CFG_HH
#define TRB_FLOW_CFG_HH

#include <bitset>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "trace/champsim_trace.hh"

namespace trb
{
namespace flow
{

/** How an observed block-to-block transition is explained. */
enum class EdgeKind : std::uint8_t
{
    Fallthrough,   //!< contiguous static successor (+2 split / +4 instr)
    Taken,         //!< taken jump or conditional
    Call,          //!< taken branch deduced DirectCall/IndirectCall
    Return,        //!< taken branch deduced Return
};

/** Stable lower-case name of an edge kind. */
const char *edgeKindName(EdgeKind kind);

/** Register space of the canonical per-PC signatures (RegId is u8). */
constexpr std::size_t kRegSpace = 256;

/** Per-block cacheline sets saturate here (footprint stays bounded). */
constexpr std::size_t kFootprintCap = 4096;

/** Canonical signature of one static µop PC (union over occurrences). */
struct PcSig
{
    std::bitset<kRegSpace> dsts;
    std::bitset<kRegSpace> srcs;
    bool isBranch = false;
    std::uint64_t occurrences = 0;
};

/** Dynamic memory behaviour of one block, accumulated over the run. */
struct BlockMemSummary
{
    std::uint64_t loads = 0;        //!< µops with a memory source
    std::uint64_t stores = 0;       //!< µops with a memory destination
    std::uint64_t strideZero = 0;   //!< same address as last visit of pc
    std::uint64_t strideUnit = 0;   //!< |delta| <= 64 (next line/element)
    std::uint64_t stridePage = 0;   //!< |delta| <= 4096 (strided)
    std::uint64_t strideFar = 0;    //!< larger jumps (irregular)
    std::uint64_t lines = 0;        //!< distinct cachelines touched
    bool linesSaturated = false;    //!< true: capped at kFootprintCap
};

/** One reconstructed basic block. */
struct BasicBlock
{
    Addr start = 0;                //!< leader PC (block key)
    Addr end = 0;                  //!< last µop PC (longest occurrence)
    std::uint32_t numUops = 0;     //!< µops in the longest occurrence
    std::vector<Addr> memberPcs;   //!< µop PCs of the longest occurrence

    std::uint64_t execCount = 0;   //!< dynamic entries
    std::uint64_t uopCount = 0;    //!< dynamic µops attributed

    bool endsInBranch = false;     //!< longest occurrence ends in a branch
    BranchType terminator = BranchType::NotBranch;

    std::uint64_t entries = 0;           //!< occurrences entered mid-stream
    std::uint64_t explainedEntries = 0;  //!< entries through an edge

    BlockMemSummary mem;
};

/** One CFG edge with its dynamic traversal count. */
struct Edge
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    EdgeKind kind = EdgeKind::Fallthrough;
    std::uint64_t count = 0;
};

/** A cross-block read of a register whose definition was dropped. */
struct StaleRead
{
    Addr usePc = 0;
    Addr defPc = 0;             //!< PC whose canonical def went missing
    std::uint64_t useIndex = 0; //!< µop-stream index of the read
    RegId reg = 0;
    std::uint32_t useBlock = 0;
    std::uint32_t defBlock = 0;
};

/** One observed non-taken exit point of a block. */
struct FallthroughExit
{
    Addr exitPc = 0;     //!< last µop of the occurrence
    Addr targetPc = 0;   //!< PC the stream continued at
    std::uint64_t count = 0;
    bool contiguous = false;  //!< +2/+4 step (an edge) vs teleport
};

/** Dynamic statistics of one observed return-target PC. */
struct ReturnTarget
{
    Addr target = 0;
    std::uint64_t count = 0;
    std::uint64_t firstIndex = 0;  //!< stream index of the first return
    Addr firstPc = 0;              //!< PC of the first returning µop
};

/** The reconstructed whole-program view. */
struct Cfg
{
    std::vector<BasicBlock> blocks;   //!< discovery order
    std::vector<Edge> edges;

    /** Edge indices leaving / entering each block (parallel to blocks). */
    std::vector<std::vector<std::uint32_t>> succs;
    std::vector<std::vector<std::uint32_t>> preds;

    /** Leader PC -> block index. */
    std::unordered_map<Addr, std::uint32_t> blockAt;

    /** Canonical per-PC signatures (every executed µop PC). */
    std::unordered_map<Addr, PcSig> pcSigs;

    std::uint32_t entryBlock = 0;     //!< block of the first record
    std::uint64_t teleports = 0;      //!< transitions no edge explains

    /** Stream index of each block's first occurrence (warm-start test). */
    std::vector<std::uint64_t> firstSeen;

    // -- facts for the whole-program lint rules ------------------------
    std::vector<StaleRead> staleReads;       //!< non-flags registers
    std::vector<StaleRead> staleFlagReads;   //!< the flags register
    std::vector<std::vector<FallthroughExit>> fallExits;  //!< per block
    std::unordered_set<Addr> callSiteReturnPcs;  //!< call µop PC + 4
    std::vector<ReturnTarget> returnTargets;
    std::uint64_t flagsDefs = 0;       //!< dynamic flags-writing µops
    std::uint64_t flagsReads = 0;      //!< dynamic flags-reading µops
    std::uint64_t firstFlagsDefIndex = 0;  //!< valid when flagsDefs > 0

    /** Convenience: is @p pc a block leader? */
    bool isLeader(Addr pc) const { return blockAt.count(pc) != 0; }
};

/**
 * Largest forward PC step accepted as a static fall-through by default
 * (see lint::LintLimits::maxContiguousStep, which overrides it).
 */
constexpr std::uint64_t kMaxContiguousStep = 64;

/**
 * Reconstruct the CFG and whole-program facts from one trace.  A
 * forward PC step of at most @p maxContiguousStep across a non-taken
 * transition is a fall-through edge; anything else is a teleport.
 */
Cfg buildCfg(ChampSimView trace,
             std::uint64_t maxContiguousStep = kMaxContiguousStep);

} // namespace flow
} // namespace trb

#endif // TRB_FLOW_CFG_HH
