/**
 * @file
 * The ChampSim trace format: the fixed 64-byte input_instr record the
 * paper's Section 3 describes (ip 8 B, is_branch 1 B, taken 1 B, 2x1 B
 * destination registers, 4x1 B source registers, 2x8 B destination memory
 * addresses, 4x8 B source memory addresses), plus file I/O and in-memory
 * traces.
 *
 * There is deliberately no operation-type field: ChampSim calls an
 * instruction a load/store if it has memory sources/destinations and
 * deduces the branch type from the x86 special registers -- see
 * branch_deduce.hh.
 */

#ifndef TRB_TRACE_CHAMPSIM_TRACE_HH
#define TRB_TRACE_CHAMPSIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "resil/status.hh"

namespace trb
{

/**
 * One 64-byte ChampSim trace record.  Register slot value 0 means "empty";
 * memory slot value 0 means "no access".
 */
struct ChampSimRecord
{
    std::uint64_t ip = 0;
    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;
    std::uint8_t destRegs[champsim::kMaxDst] = {};
    std::uint8_t srcRegs[champsim::kMaxSrc] = {};
    std::uint64_t destMem[champsim::kMaxMemDst] = {};
    std::uint64_t srcMem[champsim::kMaxMemSrc] = {};

    /** Append a destination register; returns false when slots are full. */
    bool
    addDstReg(RegId r)
    {
        for (auto &slot : destRegs) {
            if (slot == r)
                return true;
            if (slot == 0) {
                slot = r;
                return true;
            }
        }
        return false;
    }

    /** Append a source register; returns false when slots are full. */
    bool
    addSrcReg(RegId r)
    {
        for (auto &slot : srcRegs) {
            if (slot == r)
                return true;
            if (slot == 0) {
                slot = r;
                return true;
            }
        }
        return false;
    }

    /** Append a memory source address; returns false when slots are full. */
    bool
    addSrcMem(Addr a)
    {
        for (auto &slot : srcMem) {
            if (slot == 0) {
                slot = a;
                return true;
            }
        }
        return false;
    }

    /** Append a memory destination address. */
    bool
    addDstMem(Addr a)
    {
        for (auto &slot : destMem) {
            if (slot == 0) {
                slot = a;
                return true;
            }
        }
        return false;
    }

    bool
    readsReg(RegId r) const
    {
        for (auto s : srcRegs)
            if (s == r)
                return true;
        return false;
    }

    bool
    writesReg(RegId r) const
    {
        for (auto d : destRegs)
            if (d == r)
                return true;
        return false;
    }

    /** Number of populated memory source slots. */
    unsigned
    numSrcMem() const
    {
        unsigned n = 0;
        for (auto a : srcMem)
            if (a != 0)
                ++n;
        return n;
    }

    /** Number of populated memory destination slots. */
    unsigned
    numDstMem() const
    {
        unsigned n = 0;
        for (auto a : destMem)
            if (a != 0)
                ++n;
        return n;
    }

    /** ChampSim's definition of a load: has a memory source. */
    bool isLoad() const { return numSrcMem() > 0; }
    /** ChampSim's definition of a store: has a memory destination. */
    bool isStore() const { return numDstMem() > 0; }

    bool operator==(const ChampSimRecord &other) const = default;
};

static_assert(sizeof(ChampSimRecord) == 64,
              "ChampSim input_instr must be exactly 64 bytes");

/** A whole ChampSim trace held in memory. */
using ChampSimTrace = std::vector<ChampSimRecord>;

/**
 * A non-owning view of a ChampSim trace: the contiguous record array
 * the core model walks.  Converts implicitly from ChampSimTrace, and is
 * how the artifact store serves converted traces zero-copy out of an
 * mmap'd file -- the viewed storage must outlive the view.
 */
class ChampSimView
{
  public:
    ChampSimView() = default;
    ChampSimView(const ChampSimRecord *data, std::size_t count)
        : data_(data), count_(count)
    {
    }
    ChampSimView(const ChampSimTrace &trace)   // NOLINT: implicit by design
        : data_(trace.data()), count_(trace.size())
    {
    }

    const ChampSimRecord &operator[](std::size_t i) const
    {
        return data_[i];
    }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const ChampSimRecord *data() const { return data_; }
    const ChampSimRecord *begin() const { return data_; }
    const ChampSimRecord *end() const { return data_ + count_; }

  private:
    const ChampSimRecord *data_ = nullptr;
    std::size_t count_ = 0;
};

/**
 * Write a trace to @p path (".gz" suffix selects compression); returns
 * a Status, with gzwrite AND gzclose both checked -- a flush failure at
 * close is a real data loss, not a detail.
 */
Status tryWriteChampSimTrace(const std::string &path,
                             const ChampSimTrace &trace);

/**
 * Read a ChampSim trace (raw or gz) with rich diagnostics: a partial
 * final record is TruncatedInput carrying the byte offset and record
 * index, stream-level zlib failures map to CorruptRecord/IoError.
 */
Expected<ChampSimTrace> tryReadChampSimTrace(const std::string &path);

} // namespace trb

#endif // TRB_TRACE_CHAMPSIM_TRACE_HH
