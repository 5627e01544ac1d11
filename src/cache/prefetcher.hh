/**
 * @file
 * Data prefetchers: the IP-stride prefetcher at the L1D and the next-line
 * prefetcher at the L2 -- the paper's stand-in for the Icelake-style
 * prefetching setup.  The hierarchy holds one of each (there is no
 * other data prefetcher) and performs the fills they propose with
 * proper latency accounting.
 */

#ifndef TRB_CACHE_PREFETCHER_HH
#define TRB_CACHE_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace trb
{

/** Classic per-IP stride detector with confidence and degree. */
class IpStridePrefetcher
{
  public:
    explicit IpStridePrefetcher(unsigned degree = 3) : degree_(degree) {}

    /**
     * Observe a demand access and append prefetch candidates.
     * @param ip instruction address of the memory instruction
     * @param addr byte address accessed
     * @param out candidate line-aligned prefetch addresses
     */
    void
    observe(Addr ip, Addr addr, std::vector<Addr> &out)
    {
        Entry &e = table_[(ip >> 2) % table_.size()];
        Addr tag = ip >> 2;
        if (e.tag != tag) {
            e = Entry{};
            e.tag = tag;
            e.lastAddr = addr;
            return;
        }
        std::int64_t stride = static_cast<std::int64_t>(addr) -
                              static_cast<std::int64_t>(e.lastAddr);
        if (stride != 0 && stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else if (stride != 0) {
            e.stride = stride;
            e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
        }
        e.lastAddr = addr;
        if (e.confidence >= 2 && e.stride != 0) {
            Addr next = addr;
            for (unsigned d = 0; d < degree_; ++d) {
                next = static_cast<Addr>(
                    static_cast<std::int64_t>(next) + e.stride);
                out.push_back(lineAddr(next));
            }
        }
    }

  private:
    struct Entry
    {
        Addr tag = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    unsigned degree_;
    std::array<Entry, 1024> table_{};
};

/** Fetch line + 1 on every demand access. */
class NextLinePrefetcher
{
  public:
    /** The one candidate for a demand access to @p addr. */
    static Addr candidate(Addr addr) { return lineAddr(addr) + kLineBytes; }
};

} // namespace trb

#endif // TRB_CACHE_PREFETCHER_HH
