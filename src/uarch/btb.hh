/**
 * @file
 * Branch target buffer: set-associative with LRU replacement, storing the
 * branch type next to the target the way modern BTBs do (the type steers
 * the RAS and the indirect predictor).  The paper's configuration is 16K
 * entries.  Each set's tags are contiguous (an empty way holds a
 * sentinel tag), so a lookup scans one host cache line and then touches
 * only the hit way's payload.
 */

#ifndef TRB_UARCH_BTB_HH
#define TRB_UARCH_BTB_HH

#include <cstdint>
#include <vector>

#include "common/aligned.hh"
#include "common/types.hh"

namespace trb
{

/** One BTB lookup result. */
struct BtbEntryView
{
    bool hit = false;
    Addr target = 0;
    BranchType type = BranchType::NotBranch;
};

/** Set-associative LRU branch target buffer. */
class Btb
{
  public:
    /** @param entries total entries; @param ways associativity. */
    explicit Btb(std::size_t entries = 16384, unsigned ways = 8);

    /** Look up the branch at @p pc (updates recency on hit). */
    BtbEntryView lookup(Addr pc);

    /** Install or refresh the mapping pc -> (target, type). */
    void update(Addr pc, Addr target, BranchType type);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }

  private:
    /** What a way holds besides its tag. */
    struct Payload
    {
        Addr target = 0;
        std::uint64_t lru = 0;
        BranchType type = BranchType::NotBranch;
    };

    /** Tag of an empty way (pc >> 2 never has all bits set). */
    static constexpr Addr kEmpty = ~Addr{0};

    Addr tagOf(Addr pc) const { return pc >> 2; }
    std::size_t
    setBase(Addr pc) const
    {
        return (tagOf(pc) & setMask_) * ways_;
    }

    std::size_t setMask_;
    std::size_t ways_;
    AlignedVector<Addr> tags_;      //!< per way, kEmpty if unused
    AlignedVector<Payload> payload_;
    std::uint64_t clock_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

/**
 * Return address stack with a circular overflow discipline: pushes past
 * the capacity overwrite the oldest entries, pops past empty return 0.
 */
class Ras
{
  public:
    explicit Ras(std::size_t entries = 64) : stack_(entries, 0) {}

    void
    push(Addr ret)
    {
        top_ = top_ + 1 == stack_.size() ? 0 : top_ + 1;
        stack_[top_] = ret;
        if (depth_ < stack_.size())
            ++depth_;
    }

    Addr
    pop()
    {
        if (depth_ == 0)
            return 0;
        Addr ret = stack_[top_];
        top_ = (top_ == 0 ? stack_.size() : top_) - 1;
        --depth_;
        return ret;
    }

    /** Peek without popping (used by some front-end heuristics). */
    Addr
    top() const
    {
        return depth_ ? stack_[top_] : 0;
    }

    std::size_t depth() const { return depth_; }
    std::size_t capacity() const { return stack_.size(); }

  private:
    std::vector<Addr> stack_;
    std::size_t top_ = 0;
    std::size_t depth_ = 0;
};

} // namespace trb

#endif // TRB_UARCH_BTB_HH
