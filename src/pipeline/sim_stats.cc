#include "pipeline/sim_stats.hh"

#include <algorithm>
#include <bit>

namespace trb
{

namespace
{

/** Metric names of one branch type's three counters. */
#define TRB_BRANCH_TYPE_NAMES(type)                                       \
    {"branch." type ".count", "branch." type ".mispredicts",              \
     "branch." type ".target_mispredicts"}

/** Per-BranchType metric names, in enum order (see branchTypeName). */
constexpr const char *kBranchTypeNames[7][3] = {
    TRB_BRANCH_TYPE_NAMES("not-branch"),
    TRB_BRANCH_TYPE_NAMES("direct-jump"),
    TRB_BRANCH_TYPE_NAMES("indirect-jump"),
    TRB_BRANCH_TYPE_NAMES("conditional"),
    TRB_BRANCH_TYPE_NAMES("direct-call"),
    TRB_BRANCH_TYPE_NAMES("indirect-call"),
    TRB_BRANCH_TYPE_NAMES("return"),
};

#undef TRB_BRANCH_TYPE_NAMES

/**
 * The one list of SimStats counters: apply @p fn(name, field) to every
 * counter of @p stats, in the toBits() order.  toBits()/fromBits(),
 * operator- and exportTo() all walk this list, so a counter added here
 * is serialised, subtracted and exported, and one left out is none of
 * them.  Names are static metric paths (no string building).  A
 * static_assert below walks it at build time: a member of SimStats
 * that it misses, or visits twice, fails the build.
 */
template <typename Stats, typename Fn>
constexpr void
forEachStatField(Stats &stats, Fn &&fn)
{
    fn("instructions", stats.instructions);
    fn("cycles", stats.cycles);
    fn("branch.count", stats.branches);
    fn("branch.taken", stats.takenBranches);
    fn("branch.mispredicts", stats.branchMispredicts);
    fn("branch.direction_mispredicts", stats.directionMispredicts);
    fn("branch.target_mispredicts", stats.targetMispredicts);
    for (int t = 0; t < 7; ++t) {
        fn(kBranchTypeNames[t][0], stats.typeCount[t]);
        fn(kBranchTypeNames[t][1], stats.typeMispredicts[t]);
        fn(kBranchTypeNames[t][2], stats.typeTargetMispredicts[t]);
    }
    fn("cache.l1i.accesses", stats.l1iAccesses);
    fn("cache.l1i.misses", stats.l1iMisses);
    fn("cache.l1i.mshr_merges", stats.l1iMshrMerges);
    fn("cache.l1d.accesses", stats.l1dAccesses);
    fn("cache.l1d.misses", stats.l1dMisses);
    fn("cache.l1d.mshr_merges", stats.l1dMshrMerges);
    fn("cache.l2.accesses", stats.l2Accesses);
    fn("cache.l2.misses", stats.l2Misses);
    fn("cache.llc.accesses", stats.llcAccesses);
    fn("cache.llc.misses", stats.llcMisses);
    fn("cache.prefetch.issued", stats.prefetchesIssued);
    fn("core.rob.full_stalls", stats.robFullStalls);
}

/** True when forEachStatField visits every word of SimStats once. */
constexpr bool
visitsEveryStatOnce()
{
    constexpr std::size_t kWords = sizeof(SimStats) / sizeof(std::uint64_t);
    SimStats stats;
    std::size_t visits = 0;
    forEachStatField(stats, [&](const char *, std::uint64_t &v) {
        ++v;
        ++visits;
    });
    const auto words = std::bit_cast<std::array<std::uint64_t, kWords>>(stats);
    return visits == kWords &&
           std::ranges::all_of(words, [](std::uint64_t w) { return w == 1; });
}

static_assert(visitsEveryStatOnce(),
              "every SimStats member must be in forEachStatField once");

} // namespace

void
SimStats::exportTo(obs::MetricsRegistry &reg, const std::string &prefix) const
{
    forEachStatField(*this, [&](const char *name, std::uint64_t v) {
        reg.setCounter(prefix + "." + name, v);
    });
    reg.setGauge(prefix + ".ipc", ipc());
    reg.setGauge(prefix + ".branch.mpki", branchMpki());
    reg.setGauge(prefix + ".cache.l1i.mpki", l1iMpki());
    reg.setGauge(prefix + ".cache.l1d.mpki", l1dMpki());
    reg.setGauge(prefix + ".cache.l2.mpki", l2Mpki());
    reg.setGauge(prefix + ".cache.llc.mpki", llcMpki());
}

SimStats
SimStats::operator-(const SimStats &base) const
{
    const std::vector<std::uint64_t> sub = base.toBits();
    SimStats d = *this;
    std::size_t i = 0;
    forEachStatField(d, [&](const char *, std::uint64_t &v) {
        v -= sub[i++];
    });
    return d;
}

std::vector<std::uint64_t>
SimStats::toBits() const
{
    std::vector<std::uint64_t> bits;
    forEachStatField(*this, [&](const char *, std::uint64_t v) {
        bits.push_back(v);
    });
    return bits;
}

bool
SimStats::fromBits(const std::vector<std::uint64_t> &bits, SimStats &out)
{
    std::size_t expected = 0;
    forEachStatField(out, [&](const char *, std::uint64_t &) { ++expected; });
    if (bits.size() != expected)
        return false;
    std::size_t i = 0;
    forEachStatField(out, [&](const char *, std::uint64_t &v) {
        v = bits[i++];
    });
    return true;
}

} // namespace trb
