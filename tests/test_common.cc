/**
 * @file
 * Unit tests for the common toolkit: RNG determinism and distribution,
 * statistics helpers, saturating counters and folded histories.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <deque>
#include <fstream>
#include <set>
#include <sstream>

#include "common/aligned.hh"
#include "common/counters.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "common/types.hh"

namespace trb
{
namespace
{

TEST(Strings, EndsWith)
{
    EXPECT_TRUE(endsWith("trace.cvp.gz", ".gz"));
    EXPECT_TRUE(endsWith(".gz", ".gz"));
    EXPECT_TRUE(endsWith("anything", ""));
    EXPECT_TRUE(endsWith("", ""));

    EXPECT_FALSE(endsWith("trace.cvp", ".gz"));
    EXPECT_FALSE(endsWith("gz", ".gz"));          // shorter than the suffix
    EXPECT_FALSE(endsWith("trace.gz.txt", ".gz"));
    EXPECT_FALSE(endsWith("", ".gz"));

    static_assert(endsWith("a.champsimtrace.gz", ".gz"));
    static_assert(!endsWith("a.champsimtrace", ".gz"));
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(127), 1u);
    EXPECT_EQ(lineNum(128), 2u);
}

TEST(Types, ClassPredicates)
{
    EXPECT_TRUE(isBranch(InstClass::CondBranch));
    EXPECT_TRUE(isBranch(InstClass::UncondDirectBranch));
    EXPECT_TRUE(isBranch(InstClass::UncondIndirectBranch));
    EXPECT_FALSE(isBranch(InstClass::Load));
    EXPECT_TRUE(isMem(InstClass::Load));
    EXPECT_TRUE(isMem(InstClass::Store));
    EXPECT_FALSE(isMem(InstClass::Alu));
    EXPECT_FALSE(isMem(InstClass::Fp));
}

TEST(Types, NamesAreDistinct)
{
    std::set<std::string> names;
    for (int c = 0; c <= static_cast<int>(InstClass::Undef); ++c)
        names.insert(instClassName(static_cast<InstClass>(c)));
    EXPECT_EQ(names.size(), 9u);

    std::set<std::string> bnames;
    for (int t = 0; t <= static_cast<int>(BranchType::Return); ++t)
        bnames.insert(branchTypeName(static_cast<BranchType>(t)));
    EXPECT_EQ(bnames.size(), 7u);
}

TEST(Rng, DeterministicBySeed)
{
    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, WeightedChoices)
{
    Rng rng(17);
    std::vector<double> w{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.weighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Stats, MeanAndPercentile)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
}

TEST(Stats, Mpki)
{
    EXPECT_DOUBLE_EQ(mpki(5, 1000), 5.0);
    EXPECT_DOUBLE_EQ(mpki(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(mpki(0, 123456), 0.0);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(10, 4);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(1000);   // overflow bucket
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 1u);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_TRUE(c.saturatedLow());
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_TRUE(c.saturatedHigh());
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.taken());
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, WeakResets)
{
    SatCounter c(3);
    c.resetWeak(true);
    EXPECT_TRUE(c.taken());
    EXPECT_EQ(c.confidence(), 0u);
    c.resetWeak(false);
    EXPECT_FALSE(c.taken());
    EXPECT_EQ(c.confidence(), 0u);
}

TEST(SignedSatCounter, Saturates)
{
    SignedSatCounter c(3);
    for (int i = 0; i < 20; ++i)
        c.update(true);
    EXPECT_EQ(c.value(), 3);
    for (int i = 0; i < 20; ++i)
        c.update(false);
    EXPECT_EQ(c.value(), -4);
    EXPECT_FALSE(c.positive());
}

/** One folded image updated on its own: the reference every
 *  GlobalHistory lane must match. */
struct ReferenceFold
{
    unsigned width;
    unsigned outPoint;
    std::uint32_t comp = 0;

    void
    update(bool in, bool evicted)
    {
        comp = (comp << 1) | (in ? 1u : 0u);
        comp ^= (evicted ? 1u : 0u) << outPoint;
        comp ^= comp >> width;
        comp &= (1u << width) - 1;
    }
};

TEST(FoldedHistory, DeterministicAndBounded)
{
    // Every lane equals the one-fold-at-a-time reference over a random
    // stream and fits its width; identical streams fold identically and
    // different streams diverge.
    const std::vector<unsigned> lengths = {4, 13, 37, 160};
    const std::vector<unsigned> widths = {10, 11, 5};
    auto run = [&](std::uint64_t seed) {
        GlobalHistory gh(lengths, {10, 11, 5});
        std::vector<ReferenceFold> ref;
        for (unsigned w : widths)
            for (unsigned len : lengths)
                ref.push_back({w, len % w});
        std::deque<bool> hist(lengths.back(), false);   // newest first
        Rng rng(seed);
        std::uint32_t mix = 0;
        for (int step = 0; step < 2000; ++step) {
            bool bit = rng.chance(0.5);
            for (std::size_t f = 0; f < widths.size(); ++f)
                for (std::size_t t = 0; t < lengths.size(); ++t)
                    ref[f * lengths.size() + t].update(
                        bit, hist[lengths[t] - 1]);
            gh.push(bit);
            hist.push_front(bit);
            hist.pop_back();
            for (unsigned f = 0; f < widths.size(); ++f) {
                for (unsigned t = 0; t < lengths.size(); ++t) {
                    const std::uint32_t v = gh.fold(f, t);
                    EXPECT_EQ(v, ref[f * lengths.size() + t].comp);
                    EXPECT_LT(v, 1u << widths[f]);
                    mix = mix * 31 + v;
                }
            }
        }
        return mix;
    };
    EXPECT_EQ(run(23), run(23));
    EXPECT_NE(run(23), run(29));
}

TEST(FoldedHistory, ZeroHistoryFoldsToZero)
{
    GlobalHistory gh({16}, {8});
    for (int i = 0; i < 100; ++i)
        gh.push(false);
    EXPECT_EQ(gh.fold(0, 0), 0u);
}

/**
 * Push 200 000 values into @p v, checking that every block it grows
 * into starts on an @p align boundary and that the values survive.
 */
template <typename Vector>
void
checkAlignedGrowth(Vector &v, std::uintptr_t align)
{
    std::size_t grown = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        const std::size_t capacity = v.capacity();
        v.push_back(i * 3);
        if (v.capacity() != capacity) {
            ++grown;
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % align, 0u);
        }
    }
    EXPECT_GT(grown, 5u);   // moved through several blocks
    std::size_t wrong = 0;
    for (std::uint64_t i = 0; i < v.size(); ++i)
        wrong += v[i] != i * 3;
    EXPECT_EQ(wrong, 0u);
    Vector().swap(v);
    EXPECT_EQ(v.capacity(), 0u);
}

TEST(AlignedVector, LineAlignedAndKeepsContentsAsItGrows)
{
    AlignedVector<std::uint64_t> v;
    checkAlignedGrowth(v, kHostLineBytes);
    // Small blocks too, whatever the heap hands out below them.
    for (std::size_t n = 1; n < 40; ++n) {
        AlignedVector<std::uint8_t> bytes(n, 7);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) %
                      kHostLineBytes,
                  0u);
    }
}

TEST(MappedVector, PageAlignedAndKeepsContentsAsItGrows)
{
    MappedVector<std::uint64_t> v;
    checkAlignedGrowth(v, static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE)));
}

TEST(Env, DefaultsWhenUnset)
{
    unsetenv("TRB_TRACE_LEN");
    unsetenv("TRB_SUITE_SCALE");
    EXPECT_EQ(env::u64("TRB_TRACE_LEN", 7), 7u);
    EXPECT_DOUBLE_EQ(env::number("TRB_SUITE_SCALE", 0.5), 0.5);
    EXPECT_EQ(env::str("TRB_STORE", "fallback"), "fallback");
    EXPECT_FALSE(env::flag("TRB_LINT"));
}

TEST(Env, ParsesValues)
{
    setenv("TRB_TRACE_LEN", "123", 1);
    EXPECT_EQ(env::u64("TRB_TRACE_LEN", 7), 123u);
    unsetenv("TRB_TRACE_LEN");
    setenv("TRB_SUITE_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(env::number("TRB_SUITE_SCALE", 0.5), 0.25);
    unsetenv("TRB_SUITE_SCALE");
    setenv("TRB_LINT", "1", 1);
    EXPECT_TRUE(env::flag("TRB_LINT"));
    setenv("TRB_LINT", "0", 1);
    EXPECT_FALSE(env::flag("TRB_LINT"));
    unsetenv("TRB_LINT");
}

TEST(Env, RegistryIsSortedAndQueryable)
{
    const auto &vars = env::registry();
    ASSERT_FALSE(vars.empty());
    for (std::size_t i = 1; i < vars.size(); ++i)
        EXPECT_LT(std::string(vars[i - 1].name), std::string(vars[i].name))
            << "registry must stay alphabetical";
    for (const auto &var : vars) {
        EXPECT_TRUE(env::isRegistered(var.name)) << var.name;
        EXPECT_NE(var.summary[0], '\0') << var.name;
    }
    EXPECT_FALSE(env::isRegistered("TRB_NOT_A_REAL_KNOB"));
}

TEST(Env, EveryRegisteredVarIsDocumented)
{
    // docs/env-vars.md is the user-facing contract; a knob that is
    // registered but undocumented fails here and in tools/repo_lint.py.
    std::ifstream in(std::string(TRB_SOURCE_DIR) + "/docs/env-vars.md");
    ASSERT_TRUE(in.good()) << "docs/env-vars.md missing";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string docs = ss.str();
    for (const auto &var : env::registry())
        EXPECT_NE(docs.find(var.name), std::string::npos)
            << var.name << " is registered but not in docs/env-vars.md";
}

} // namespace
} // namespace trb
