/**
 * @file
 * Tests for trb::store and the SimRequest store integration: key and
 * digest stability across Store instances, artifact round-trips,
 * quarantine of damaged artifacts (including TRB_FAULT-injected damage),
 * LRU eviction, the completeness of the configuration key, and the
 * headline contract -- simulate() results are bit-identical whether the
 * store is cold, warm, or disabled, and a sweep rerun under a partly
 * filled store resumes from it bit-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "convert/improvements.hh"
#include "experiments/experiment.hh"
#include "obs/metrics.hh"
#include "resil/cancel.hh"
#include "resil/fault.hh"
#include "sim/simulator.hh"
#include "store/digest.hh"
#include "store/store.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace fs = std::filesystem;

namespace trb
{
namespace
{

std::uint64_t
counter(const char *path)
{
    return obs::MetricsRegistry::global().counterValue(path);
}

/** A fresh store directory under the build tree, wiped per test. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::string(TRB_BUILD_DIR) + "/store_test/" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        store::Store::setDirForTesting("");
        resil::FaultInjector::global().disable();
        fs::remove_all(dir_);
    }

    std::string dir_;
};

ChampSimTrace
makeTrace(std::size_t n, std::uint64_t seed)
{
    ChampSimTrace trace(n);
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        trace[i].ip = 0x400000 + 4 * i;
        trace[i].isBranch = (x >> 60) == 0;
        trace[i].srcRegs[0] = static_cast<std::uint8_t>(1 + (x % 30));
        trace[i].srcMem[0] = (x >> 8) & ~std::uint64_t{7};
    }
    return trace;
}

TEST(StoreDigest, StableAcrossCallsAndChunkings)
{
    const std::string text = "the digest is an on-disk format";
    store::Digest one = store::digestString(text);
    EXPECT_EQ(one, store::digestString(text));

    store::Hasher h;
    h.update(text.data(), 5);
    h.update(text.data() + 5, 3);
    h.update(text.data() + 8, text.size() - 8);
    EXPECT_EQ(h.finish(), one) << "chunking must not change the digest";

    EXPECT_NE(one, store::digestString(text + "."));
    EXPECT_NE(one, store::digestString(text, /*seed=*/1));
    EXPECT_EQ(one.hex().size(), 32u);
}

TEST(StoreDigest, PinnedGoldenValue)
{
    // The digest addresses artifacts on disk: if this value moves, every
    // existing store silently misses.  Bump kStoreFormatVersion (and
    // this constant) when changing the hash on purpose.
    EXPECT_EQ(store::digestString("trb-store-golden").hex(),
              "f62a14b08300ae0e72a63b473d4c23d4");
}

TEST(StoreDigest, StreamedCvpDigestMatchesWholeBuffer)
{
    // The streamed digest must hash exactly serializeCvpTrace()'s bytes:
    // every store key built from a CVP digest depends on it.
    for (std::size_t n : {0u, 1u, 2000u, 50000u}) {
        const CvpTrace cvp = TraceGenerator(serverParams(3)).generate(n);
        ASSERT_EQ(cvp.size(), n);
        const std::vector<std::uint8_t> bytes = serializeCvpTrace(cvp);
        EXPECT_EQ(store::digestCvpTrace(cvp),
                  store::digestBytes(bytes.data(), bytes.size()))
            << n << " records";
    }
}

TEST_F(StoreTest, TraceRoundTripAcrossInstances)
{
    ChampSimTrace trace = makeTrace(1000, 7);
    const std::string key = "trace;conv=1;imps=0x0;cvp=deadbeef";

    std::uint64_t hits = counter("store.hits");
    std::uint64_t misses = counter("store.misses");
    {
        store::Store writer(dir_);
        store::TraceHandle h;
        EXPECT_FALSE(writer.loadTrace(key, h));
        writer.putTrace(key, trace);
    }
    EXPECT_EQ(counter("store.misses"), misses + 1);

    // A second instance (a stand-in for a second process) must serve
    // the identical records back.
    store::Store reader(dir_);
    store::TraceHandle h;
    ASSERT_TRUE(reader.loadTrace(key, h));
    EXPECT_EQ(counter("store.hits"), hits + 1);
    ASSERT_EQ(h.view().size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(h.view()[i], trace[i]) << "record " << i;
}

TEST_F(StoreTest, BitsRoundTrip)
{
    std::vector<std::uint64_t> bits = {0, 1, ~std::uint64_t{0},
                                       0x123456789abcdef0ULL};
    store::Store st(dir_);
    st.putBits("stats;sim=1;src=x", bits);
    std::vector<std::uint64_t> back;
    ASSERT_TRUE(st.loadBits("stats;sim=1;src=x", back));
    EXPECT_EQ(back, bits);
    EXPECT_FALSE(st.loadBits("stats;sim=1;src=y", back));
}

TEST_F(StoreTest, KeysMapToStablePaths)
{
    store::Store a(dir_);
    store::Store b(dir_);
    const std::string key = "stats;sim=1;src=whatever";
    EXPECT_EQ(a.artifactPath(store::kStatsArtifact, key),
              b.artifactPath(store::kStatsArtifact, key));
    EXPECT_NE(a.artifactPath(store::kStatsArtifact, key),
              a.artifactPath(store::kTraceArtifact, key));
    EXPECT_NE(a.artifactPath(store::kStatsArtifact, key),
              a.artifactPath(store::kStatsArtifact, key + "!"));
}

TEST_F(StoreTest, CorruptPayloadIsQuarantined)
{
    store::Store st(dir_);
    ChampSimTrace trace = makeTrace(256, 3);
    const std::string key = "trace;conv=1;imps=0x1;cvp=feed";
    st.putTrace(key, trace);

    // Flip one payload byte behind the store's back.
    std::string path = st.artifactPath(store::kTraceArtifact, key);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(128);
        char c = 0;
        f.seekg(128);
        f.get(c);
        f.seekp(128);
        f.put(static_cast<char>(c ^ 0x40));
    }

    std::uint64_t quarantined = counter("store.quarantined");
    store::TraceHandle h;
    EXPECT_FALSE(st.loadTrace(key, h));
    EXPECT_EQ(counter("store.quarantined"), quarantined + 1);
    EXPECT_FALSE(fs::exists(path)) << "damaged artifact left in place";
    EXPECT_TRUE(fs::exists(path + ".bad"));

    // The slot is reusable after quarantine.
    st.putTrace(key, trace);
    EXPECT_TRUE(st.loadTrace(key, h));
}

TEST_F(StoreTest, TruncatedArtifactIsQuarantined)
{
    store::Store st(dir_);
    st.putBits("k", {1, 2, 3, 4});
    std::string path = st.artifactPath(store::kStatsArtifact, "k");
    fs::resize_file(path, fs::file_size(path) - 8);
    std::vector<std::uint64_t> back;
    EXPECT_FALSE(st.loadBits("k", back));
    EXPECT_TRUE(fs::exists(path + ".bad"));
}

TEST_F(StoreTest, MisfiledArtifactIsQuarantined)
{
    // An artifact renamed under another key's path carries the wrong
    // embedded key: that is corruption, not a hit.
    store::Store st(dir_);
    st.putBits("key-one", {42});
    fs::rename(st.artifactPath(store::kStatsArtifact, "key-one"),
               st.artifactPath(store::kStatsArtifact, "key-two"));
    std::vector<std::uint64_t> back;
    EXPECT_FALSE(st.loadBits("key-two", back));
    EXPECT_TRUE(fs::exists(
        st.artifactPath(store::kStatsArtifact, "key-two") + ".bad"));
}

TEST_F(StoreTest, FaultInjectionDamageIsCaught)
{
    store::Store st(dir_);
    ChampSimTrace trace = makeTrace(512, 11);
    st.putTrace("k", trace);

    // Afflict every stream with bit flips: the store's load path must
    // route through the injector and catch the damage via the digest.
    resil::FaultSpec spec;
    spec.rate[static_cast<unsigned>(resil::FaultKind::BitFlip)] = 1.0;
    resil::FaultInjector::global().configure(spec, /*seed=*/1234);

    store::TraceHandle h;
    EXPECT_FALSE(st.loadTrace("k", h));

    resil::FaultInjector::global().disable();
    // The artifact was quarantined; a clean rerun repopulates.
    st.putTrace("k", trace);
    EXPECT_TRUE(st.loadTrace("k", h));
}

TEST_F(StoreTest, GcEvictsLeastRecentlyUsedFirst)
{
    store::Store st(dir_);
    st.putBits("old", std::vector<std::uint64_t>(64, 1));
    st.putBits("mid", std::vector<std::uint64_t>(64, 2));
    st.putBits("new", std::vector<std::uint64_t>(64, 3));

    auto age = [&](const char *key, int hours) {
        fs::last_write_time(
            st.artifactPath(store::kStatsArtifact, key),
            fs::file_time_type::clock::now() -
                std::chrono::hours(hours));
    };
    age("old", 3);
    age("mid", 2);
    age("new", 1);

    // A stale temporary and a quarantined file must always be removed.
    { std::ofstream(dir_ + "/.tmp-1234-0") << "half-written"; }
    { std::ofstream(dir_ + "/tr-junk.trb.bad") << "quarantined"; }

    auto one = fs::file_size(st.artifactPath(store::kStatsArtifact,
                                             "old"));
    store::Store::GcResult gc = st.gc(2 * one);
    EXPECT_EQ(gc.scanned, 3u);
    EXPECT_EQ(gc.totalBytes, 3 * one);
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_EQ(gc.evictedBytes, one);

    std::vector<std::uint64_t> back;
    EXPECT_FALSE(st.loadBits("old", back)) << "oldest must go first";
    EXPECT_TRUE(st.loadBits("mid", back));
    EXPECT_TRUE(st.loadBits("new", back));
    EXPECT_FALSE(fs::exists(dir_ + "/.tmp-1234-0"));
    EXPECT_FALSE(fs::exists(dir_ + "/tr-junk.trb.bad"));
}

TEST_F(StoreTest, LoadRefreshesEvictionRank)
{
    store::Store st(dir_);
    st.putBits("a", std::vector<std::uint64_t>(64, 1));
    st.putBits("b", std::vector<std::uint64_t>(64, 2));
    for (const char *key : {"a", "b"})
        fs::last_write_time(
            st.artifactPath(store::kStatsArtifact, key),
            fs::file_time_type::clock::now() - std::chrono::hours(2));

    std::vector<std::uint64_t> back;
    ASSERT_TRUE(st.loadBits("a", back));   // touches a's mtime

    auto one = fs::file_size(st.artifactPath(store::kStatsArtifact,
                                             "a"));
    st.gc(one);
    EXPECT_TRUE(st.loadBits("a", back)) << "recently used must survive";
    EXPECT_FALSE(st.loadBits("b", back));
}

TEST_F(StoreTest, VerifyFlagsAndQuarantinesDamage)
{
    store::Store st(dir_);
    st.putBits("good", {1, 2});
    st.putBits("bad", {3, 4});
    std::string path = st.artifactPath(store::kStatsArtifact, "bad");
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('\x7f');
    }
    store::Store::VerifyResult v = st.verify();
    EXPECT_EQ(v.checked, 2u);
    EXPECT_EQ(v.ok, 1u);
    ASSERT_EQ(v.bad.size(), 1u);
    EXPECT_FALSE(v.bad[0].status.ok());
    EXPECT_TRUE(fs::exists(path + ".bad"));

    store::Store::VerifyResult clean = st.verify();
    EXPECT_EQ(clean.checked, 1u);
    EXPECT_EQ(clean.ok, 1u);
}

TEST_F(StoreTest, ListReportsKindsAndKeys)
{
    store::Store st(dir_);
    st.putTrace("tkey", makeTrace(16, 1));
    st.putBits("skey", {9});
    std::vector<store::ArtifactInfo> all = st.list();
    ASSERT_EQ(all.size(), 2u);
    bool saw_trace = false, saw_stats = false;
    for (const store::ArtifactInfo &info : all) {
        EXPECT_TRUE(info.status.ok());
        if (info.kind == store::kTraceArtifact) {
            saw_trace = true;
            EXPECT_EQ(info.key, "tkey");
        } else if (info.kind == store::kStatsArtifact) {
            saw_stats = true;
            EXPECT_EQ(info.key, "skey");
        }
    }
    EXPECT_TRUE(saw_trace);
    EXPECT_TRUE(saw_stats);
}

TEST_F(StoreTest, VerifyAcceptsRetiredRegionKinds)
{
    // No code writes region artifacts any more, but older stores hold
    // bv- files: forge one from a stats artifact by rewriting its kind.
    store::Store st(dir_);
    const std::string key = "flow-bbv;v=1;trace=feed;rlen=10000";
    st.putBits(key, {1, 2, 3});
    const std::string region =
        st.artifactPath(store::kRegionBbvArtifact, key);
    fs::copy_file(st.artifactPath(store::kStatsArtifact, key), region);
    {
        std::fstream f(region,
                       std::ios::in | std::ios::out | std::ios::binary);
        const std::uint32_t kind = store::kRegionBbvArtifact;
        f.seekp(12);   // the header's u32 kind field
        f.write(reinterpret_cast<const char *>(&kind), sizeof(kind));
    }

    std::uint64_t quarantined = counter("store.quarantined");
    store::Store::VerifyResult result = st.verify();
    EXPECT_EQ(result.checked, 2u);
    EXPECT_EQ(result.ok, 2u);
    EXPECT_TRUE(result.bad.empty());
    EXPECT_EQ(counter("store.quarantined"), quarantined);
    EXPECT_TRUE(fs::exists(region));

    bool saw_region = false;
    for (const store::ArtifactInfo &info : st.list()) {
        if (dir_ + "/" + info.file != region)
            continue;
        saw_region = true;
        EXPECT_TRUE(info.status.ok());
        EXPECT_EQ(info.kind, store::kRegionBbvArtifact);
        EXPECT_EQ(info.key, key);
    }
    EXPECT_TRUE(saw_region);
}

/** The headline contract: cold, warm and disabled runs are identical. */
TEST_F(StoreTest, SimulateBitIdenticalColdWarmDisabled)
{
    CvpTrace cvp = TraceGenerator(serverParams(21)).generate(6000);

    store::Store::setDirForTesting("");
    SimResult off = simulate(cvp, {.imps = kAllImps});
    EXPECT_FALSE(off.statsFromStore);

    store::Store::setDirForTesting(dir_);
    SimResult cold = simulate(cvp, {.imps = kAllImps});
    EXPECT_FALSE(cold.statsFromStore);

    SimResult warm = simulate(cvp, {.imps = kAllImps});
    EXPECT_TRUE(warm.statsFromStore);

    EXPECT_EQ(off.stats.toBits(), cold.stats.toBits());
    EXPECT_EQ(off.stats.toBits(), warm.stats.toBits());

    // A different warm-up misses and re-simulates, bit-identically to a
    // storeless run of the same request.
    SimResult half = simulate(cvp, {.imps = kAllImps, .warmupFraction = 0.5});
    EXPECT_FALSE(half.statsFromStore);
    EXPECT_NE(half.stats.toBits(), warm.stats.toBits());
    SimResult half_off = simulate(
        cvp, {.imps = kAllImps, .warmupFraction = 0.5, .useStore = false});
    EXPECT_EQ(half.stats.toBits(), half_off.stats.toBits());
    SimResult half_warm =
        simulate(cvp, {.imps = kAllImps, .warmupFraction = 0.5});
    EXPECT_TRUE(half_warm.statsFromStore);
    EXPECT_EQ(half.stats.toBits(), half_warm.stats.toBits());

    // useStore=false bypasses the (warm) store and still agrees.
    SimResult bypass = simulate(cvp, {.imps = kAllImps,
                                      .useStore = false});
    EXPECT_FALSE(bypass.statsFromStore);
    EXPECT_EQ(bypass.stats.toBits(), warm.stats.toBits());
}

/**
 * A token's deadline is enforced by simulate()'s own polls: once passed
 * it aborts the run before anything is published, and a deadline that
 * never passes changes no bit of the result.
 */
TEST_F(StoreTest, SimulateWithExpiredDeadlineThrowsAndPublishesNothing)
{
    CvpTrace cvp = TraceGenerator(serverParams(21)).generate(20000);
    store::Store st(dir_);
    const resil::CancelToken expired(resil::Deadline::after(0));
    EXPECT_THROW(simulate(cvp, {.imps = kAllImps,
                                .store = &st,
                                .cancel = &expired}),
                 resil::CancelledError);
    EXPECT_TRUE(st.list().empty());
}

TEST_F(StoreTest, SimulateWithFarDeadlineIsBitIdentical)
{
    CvpTrace cvp = TraceGenerator(serverParams(21)).generate(20000);
    const resil::CancelToken far(resil::Deadline::after(3'600'000));
    SimResult plain = simulate(cvp, {.imps = kAllImps, .useStore = false});
    SimResult polled = simulate(
        cvp, {.imps = kAllImps, .useStore = false, .cancel = &far});
    EXPECT_EQ(plain.stats.toBits(), polled.stats.toBits());
}

TEST_F(StoreTest, SimulateKeySeparatesConfigurations)
{
    CvpTrace cvp = TraceGenerator(serverParams(5)).generate(4000);
    store::Store::setDirForTesting(dir_);

    SimResult modern = simulate(cvp, {.imps = kImpNone});
    SimResult ipc1 = simulate(cvp, {.imps = kImpNone,
                                    .params = ipc1Config()});
    EXPECT_FALSE(ipc1.statsFromStore)
        << "different CoreParams must never share a result";
    EXPECT_NE(modern.stats.toBits(), ipc1.stats.toBits());

    CoreParams slow_dram;   // differs only in the memory system
    slow_dram.mem.dramLatency *= 4;
    SimResult slow = simulate(cvp, {.imps = kImpNone, .params = slow_dram});
    EXPECT_FALSE(slow.statsFromStore)
        << "the key must cover the memory hierarchy";
    EXPECT_NE(modern.stats.toBits(), slow.stats.toBits());

    SimResult other_imps = simulate(cvp, {.imps = kImpCallStack});
    EXPECT_FALSE(other_imps.statsFromStore)
        << "different improvements convert differently";
}

/**
 * Edit each keyed field of @p params in turn, call @p fn(label) and
 * undo the edit: integers are bumped, bools flipped and enums moved
 * between the enumerators 0 and 1, which every keyed enum has.
 */
template <typename Params, typename Fn>
void
forEachFieldEdit(Params &params, const std::string &label, Fn &fn)
{
    Params::forEachKeyedParam(params, [&](const char *tag, auto &v) {
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_class_v<T>) {
            forEachFieldEdit(v, label + tag + ".", fn);
        } else {
            const T old = v;
            if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
                ++v;
            else
                v = static_cast<T>(v == T{});
            fn(label + tag);
            v = old;
        }
    });
}

/**
 * The store key is all that keeps two configurations' results apart, so
 * every field of CoreParams, HierarchyParams and each level's
 * CacheParams must move coreParamsKey() on its own.
 */
TEST(StoreKey, CoreParamsKeyCoversEveryField)
{
    CoreParams p;
    const std::string base = coreParamsKey(p);
    std::map<std::string, std::string> field_of_key;
    auto check = [&](const std::string &field) {
        const std::string key = coreParamsKey(p);
        EXPECT_NE(key, base) << field << " is missing from the key";
        const auto [it, fresh] = field_of_key.emplace(key, field);
        EXPECT_TRUE(fresh) << field << " and " << it->second
                           << " share a key";
    };
    forEachFieldEdit(p, "", check);
    // One edit per value the key spells, after each '=' or '/'.
    EXPECT_EQ(field_of_key.size(),
              static_cast<std::size_t>(std::count_if(
                  base.begin(), base.end(),
                  [](char c) { return c == '=' || c == '/'; })));

    // The cache name is a label for reports, not a parameter.
    p.mem.l2.name = "other";
    EXPECT_EQ(coreParamsKey(p), base);
}

/**
 * simulate() publishes the stats and nothing else, under a key that
 * must not move: a new spelling would orphan every existing store.
 */
TEST_F(StoreTest, SimulatePublishesOnePinnedStatsArtifact)
{
    CvpTrace cvp = TraceGenerator(serverParams(21)).generate(2000);
    store::Store st(dir_);
    SimResult r = simulate(cvp, {.imps = kAllImps, .store = &st});
    EXPECT_FALSE(r.statsFromStore);

    std::vector<store::ArtifactInfo> all = st.list();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].kind, store::kStatsArtifact);
    EXPECT_EQ(all[0].key,
              "stats;sim=1;src=trace;conv=1;imps=0x3f;"
              "cvp=068ca304e2a889a4ad860e20e234d22a;"
              "core=fw=6;iw=6;rw=6;rob=320;fd=8;mp=2;drp=3;dfe=1;ftq=24;"
              "it=0;rules=1;dir=0;btb=16384;btbw=8;ras=64;"
              "l1i=32768/8/4/0;l1d=49152/12/5/0;l2=524288/8/10/0;"
              "llc=2097152/16/24/1;dram=180;l1dpf=1;l2pf=1;"
              "warm=0x0000000000000000;ipref=");
}

/**
 * Sweep resume: the cells a killed sweep completed are in the store, so
 * a rerun serves exactly those back and simulates exactly the rest.
 */
TEST_F(StoreTest, SweepResumesFromStoreBitIdentically)
{
    std::vector<TraceSpec> suite;
    const std::vector<TraceSpec> full_suite = cvp1PublicSuite(1000);
    for (std::size_t i = 0; i < full_suite.size(); i += 15)
        suite.push_back(full_suite[i]);
    const std::vector<NamedSet> sets(figureOneSets().begin(),
                                     figureOneSets().begin() + 2);
    const CoreParams params;

    store::Store::setDirForTesting(dir_);
    std::vector<SimStats> base_first;
    const auto first = runImprovementSweep(suite, sets, params, &base_first);

    // Mimic a kill: drop every third published cell.
    store::Store st(dir_);
    std::vector<store::ArtifactInfo> cells = st.list();
    ASSERT_EQ(cells.size(), suiteCount(suite) * (1 + sets.size()));
    std::uint64_t deleted = 0;
    for (std::size_t i = 0; i < cells.size(); i += 3, ++deleted) {
        ASSERT_EQ(cells[i].kind, store::kStatsArtifact);
        fs::remove(dir_ + "/" + cells[i].file);
    }
    const std::uint64_t kept = cells.size() - deleted;

    const std::uint64_t hits = counter("store.hits");
    const std::uint64_t misses = counter("store.misses");
    std::vector<SimStats> base_resumed;
    const auto resumed =
        runImprovementSweep(suite, sets, params, &base_resumed);
    EXPECT_EQ(counter("store.hits") - hits, kept);
    EXPECT_EQ(counter("store.misses") - misses, deleted);

    ASSERT_EQ(resumed.size(), first.size());
    for (std::size_t k = 0; k < first.size(); ++k) {
        ASSERT_EQ(resumed[k].ratio.size(), first[k].ratio.size());
        for (std::size_t i = 0; i < first[k].ratio.size(); ++i)
            EXPECT_EQ(std::memcmp(&resumed[k].ratio[i], &first[k].ratio[i],
                                  sizeof(double)),
                      0)
                << "set " << k << " trace " << i;
    }
    ASSERT_EQ(base_resumed.size(), base_first.size());
    for (std::size_t i = 0; i < base_first.size(); ++i)
        EXPECT_EQ(base_resumed[i].toBits(), base_first[i].toBits())
            << "baseline of trace " << i;
    EXPECT_EQ(st.list().size(), cells.size());
}

TEST_F(StoreTest, SimulateCorruptStoreFallsBack)
{
    CvpTrace cvp = TraceGenerator(serverParams(9)).generate(4000);
    store::Store::setDirForTesting(dir_);
    SimResult cold = simulate(cvp, {.imps = kImpNone});

    // Damage every artifact in the store.
    for (const auto &entry : fs::directory_iterator(dir_)) {
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(70);
        f.put('\x55');
    }
    SimResult fallback = simulate(cvp, {.imps = kImpNone});
    EXPECT_FALSE(fallback.statsFromStore);
    EXPECT_EQ(cold.stats.toBits(), fallback.stats.toBits());

    // The quarantine repopulated the store; now it hits again.
    SimResult warm = simulate(cvp, {.imps = kImpNone});
    EXPECT_TRUE(warm.statsFromStore);
}

} // namespace
} // namespace trb
