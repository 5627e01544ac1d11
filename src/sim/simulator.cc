#include "sim/simulator.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>

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

/**
 * The key spelling of @p value: an integer, bool or enum in decimal; a
 * cache level's keyed fields joined by '/'; any other parameter struct's
 * as `tag=value` entries joined by ';', a nested hierarchy's in line.
 */
template <typename T>
std::string
keyOf(const T &value)
{
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
        return std::to_string(static_cast<unsigned long long>(value));
    } else {
        constexpr bool level = std::is_same_v<T, CacheParams>;
        std::string key;
        T::forEachKeyedParam(value, [&](const char *tag, auto &v) {
            if (!key.empty())
                key += level ? '/' : ';';
            if (!level && !std::is_same_v<std::decay_t<decltype(v)>,
                                          HierarchyParams>)
                (key += tag) += '=';
            key += keyOf(v);
        });
        return key;
    }
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

/**
 * The uncached tail: run the core model over @p trace, replaying the
 * request's tape while it fits and predicting from the start when it
 * stops.
 */
SimResult
runCore(ChampSimView trace, const SimRequest &req)
{
    obs::SpanScope span(obs::kSimulatePhase);
    span.setItems(trace.size());
    auto warmup = static_cast<std::uint64_t>(
        req.warmupFraction * static_cast<double>(trace.size()));
    SimResult result;
    if (req.replayTape) {
        O3Core core(req.params, req.ipref);
        core.setCancelToken(req.cancel);
        if (std::optional<SimStats> stats =
                core.replay(trace, warmup, *req.replayTape)) {
            result.stats = *stats;
            result.replayed = true;
            return result;
        }
    }
    O3Core core(req.params, req.ipref);
    core.setCancelToken(req.cancel);
    result.stats = req.recordTape
                       ? core.runRecording(trace, warmup, *req.recordTape)
                       : core.run(trace, warmup);
    return result;
}

/**
 * The one memo: serve the SimStats under @p stats_key from @p st, or
 * compute them with @p run (a SimResult) and publish them.  @p st may be
 * null, which just runs.
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
    result = run();
    if (st)
        st->putBits(stats_key, result.stats.toBits());
    return result;
}

} // namespace

std::string
coreParamsKey(const CoreParams &p)
{
    return keyOf(p);
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
