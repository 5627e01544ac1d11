#include "sim/simulator.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "convert/improvements.hh"
#include "lint/lint.hh"
#include "obs/profile.hh"
#include "obs/span.hh"

namespace trb
{

namespace
{

/**
 * Result-key schema version.  Bump whenever anything that influences a
 * SimStats value but is not spelled in the key changes (the core model
 * itself, the stat layout, the warm-up arithmetic, ...), or stale store
 * artifacts will silently serve old results.
 */
constexpr unsigned kSimKeyVersion = 1;

std::string
hexBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

void
appendCacheKey(std::string &key, const char *tag, const CacheParams &c)
{
    key += tag;
    key += '=';
    key += std::to_string(c.sizeBytes);
    key += '/';
    key += std::to_string(c.ways);
    key += '/';
    key += std::to_string(c.latency);
    key += '/';
    key += std::to_string(static_cast<unsigned>(c.policy));
    key += ';';
}

/**
 * Identity of a CVP trace converted under @p imps: the source part of
 * its stats key.  The spelling is that of the converted-trace artifacts
 * older stores hold, so their stats artifacts keep matching.
 */
std::string
traceKeyString(const store::Digest &cvp_digest, ImprovementSet imps)
{
    char imps_hex[11];
    std::snprintf(imps_hex, sizeof(imps_hex), "0x%x", imps);
    return std::string("trace;conv=") + std::to_string(kConverterVersion) +
           ";imps=" + imps_hex + ";cvp=" + cvp_digest.hex();
}

/**
 * Key of a SimStats artifact; @p src identifies the simulated input.
 * A prefetcher is keyed by its name: every one is default-built, and
 * no two share a name.
 */
std::string
statsKeyString(const std::string &src, const SimRequest &req)
{
    return std::string("stats;sim=") + std::to_string(kSimKeyVersion) +
           ";src=" + src + ";core=" + coreParamsKey(req.params) +
           ";warm=" + hexBits(req.warmupFraction) +
           ";ipref=" + (req.ipref ? req.ipref->name() : "");
}

/** The store this request uses; nullptr when memoization is off. */
store::Store *
resolveStore(const SimRequest &req)
{
    if (!req.useStore)
        return nullptr;
    return req.store ? req.store : store::Store::global();
}

/**
 * Largest conversion buffer a thread keeps between simulate() calls;
 * one grown past it is released after the run.
 */
constexpr std::size_t kKeptConvertBytes = std::size_t{64} << 20;

/**
 * The calling thread's conversion buffer.  It keeps its capacity from
 * one cold simulate() to the next, so a run of cold calls converts into
 * pages that are already mapped: a fresh vector per call would free
 * megabytes at the heap top, which glibc trims, and fault them back in
 * on the next call.  Its pages are mapped outside the malloc heap, so
 * keeping it changes nothing about how the heap trims the caller's own
 * blocks.  Nothing under simulate() waits on the thread pool, whose
 * help-first join could start another simulate() on this thread, so one
 * call at a time uses the buffer.
 */
MappedChampSimTrace &
convertBuffer()
{
    thread_local MappedChampSimTrace buffer;
    return buffer;
}

/** Releases the conversion buffer when a run leaves it over the cap. */
struct ConvertBufferCap
{
    MappedChampSimTrace &buffer;

    ~ConvertBufferCap()
    {
        if (buffer.capacity() * sizeof(ChampSimRecord) > kKeptConvertBytes)
            MappedChampSimTrace().swap(buffer);
    }
};

/** The uncached tail: run the core model over @p trace. */
SimStats
runCore(ChampSimView trace, const SimRequest &req)
{
    obs::SpanScope span(obs::kSimulatePhase);
    span.setItems(trace.size());
    O3Core core(req.params, req.ipref);
    core.setCancelToken(req.cancel);
    auto warmup = static_cast<std::uint64_t>(
        req.warmupFraction * static_cast<double>(trace.size()));
    return core.run(trace, warmup);
}

/**
 * The one memo: serve the SimStats under @p stats_key from @p st, or
 * compute them with @p run and publish them.  @p st may be null, which
 * just runs.
 */
template <typename Run>
SimResult
memoized(store::Store *st, const std::string &stats_key, Run run)
{
    SimResult result;
    if (st) {
        std::vector<std::uint64_t> bits;
        if (st->loadBits(stats_key, bits) &&
            SimStats::fromBits(bits, result.stats)) {
            result.statsFromStore = true;
            return result;
        }
    }
    result.stats = run();
    if (st)
        st->putBits(stats_key, result.stats.toBits());
    return result;
}

} // namespace

// LP64 sizes of the keyed structs.  A new field grows one of them and
// fails the build here (unless it fits in padding): spell it in
// coreParamsKey(), add it to StoreKey.CoreParamsKeyCoversEveryField,
// then update the size.
static_assert(sizeof(CacheParams) == sizeof(std::string) + 32);
static_assert(sizeof(HierarchyParams) == 4 * sizeof(CacheParams) + 16);
static_assert(sizeof(CoreParams) == sizeof(HierarchyParams) + 72);

std::string
coreParamsKey(const CoreParams &p)
{
    std::string key;
    key += "fw=" + std::to_string(p.fetchWidth);
    key += ";iw=" + std::to_string(p.issueWidth);
    key += ";rw=" + std::to_string(p.retireWidth);
    key += ";rob=" + std::to_string(p.robSize);
    key += ";fd=" + std::to_string(p.frontendDepth);
    key += ";mp=" + std::to_string(p.mispredictPenalty);
    key += ";drp=" + std::to_string(p.decodeRedirectPenalty);
    key += ";dfe=" + std::to_string(p.decoupledFrontEnd ? 1 : 0);
    key += ";ftq=" + std::to_string(p.ftqLookahead);
    key += ";it=" + std::to_string(p.idealTargets ? 1 : 0);
    key += ";rules=" + std::to_string(static_cast<int>(p.rules));
    key += ";dir=" + std::to_string(static_cast<int>(p.dirPred));
    key += ";btb=" + std::to_string(p.btbEntries);
    key += ";btbw=" + std::to_string(p.btbWays);
    key += ";ras=" + std::to_string(p.rasEntries);
    key += ';';
    appendCacheKey(key, "l1i", p.mem.l1i);
    appendCacheKey(key, "l1d", p.mem.l1d);
    appendCacheKey(key, "l2", p.mem.l2);
    appendCacheKey(key, "llc", p.mem.llc);
    key += "dram=" + std::to_string(p.mem.dramLatency);
    key += ";l1dpf=" + std::to_string(p.mem.l1dIpStride ? 1 : 0);
    key += ";l2pf=" + std::to_string(p.mem.l2NextLine ? 1 : 0);
    return key;
}

CoreParams
modernConfig()
{
    return CoreParams{};
}

CoreParams
ipc1Config()
{
    CoreParams p;
    p.decoupledFrontEnd = false;   // pre-FDIP ChampSim front-end
    p.idealTargets = true;         // the contest's ideal target predictor
    p.rules = DeductionRules::Patched;   // Section 3.2.2 patch applied
    p.dirPred = DirPredKind::TageScL;
    p.mem.l1dIpStride = true;
    p.mem.l2NextLine = false;
    return p;
}

SimResult
simulate(ChampSimView trace, const SimRequest &req)
{
    store::Store *st = resolveStore(req);
    std::string stats_key;
    if (st)
        stats_key = statsKeyString(
            "cs:" + store::digestChampSimTrace(trace).hex(), req);
    return memoized(st, stats_key, [&] { return runCore(trace, req); });
}

SimResult
simulate(const CvpTrace &cvp, const SimRequest &req)
{
    store::Store *st = resolveStore(req);
    std::string stats_key;
    if (st) {
        store::Digest cvp_digest =
            req.cvpDigest ? *req.cvpDigest : store::digestCvpTrace(cvp);
        stats_key = statsKeyString(traceKeyString(cvp_digest, req.imps),
                                   req);
    }
    // A hit skips conversion, and with it lint: only the stats are
    // memoized, so every conversion that runs is a fresh one.
    return memoized(st, stats_key, [&] {
        MappedChampSimTrace &trace = convertBuffer();
        ConvertBufferCap cap{trace};
        {
            obs::SpanScope span("convert");
            span.setItems(cvp.size());
            Cvp2ChampSim(req.imps).convert(cvp, trace);
        }
        if (lint::lintEnabledFromEnv()) {
            obs::SpanScope span("lint");
            span.setItems(trace.size());
            lint::maybeLintConverted(improvementSetName(req.imps), cvp,
                                     trace);
        }
        return runCore(trace, req);
    });
}

} // namespace trb
