/**
 * @file
 * The serve-mixed workload: an in-process ServeDaemon with two
 * executing workers and a fresh store, driven over its Unix socket by
 * two closed-loop clients (one connection each, two requests
 * outstanding, the next sent only when a reply arrives).  Most requests
 * are warm -- drawn from a set the set-up phase sends once, so their
 * stats are in the store -- and one in 32 is cold: a never-seen preset
 * seed that misses, simulates and writes its trace and stats artifacts.
 * Every reply is checked bit for bit against a direct simulate() of the
 * same request.
 *
 * The traced run first drives the daemon as the untraced run does (the
 * class split, store hit ratio and pool counters come from there), then
 * continues the request stream one call at a time, alternating plain
 * calls with traced ones: a span around ServeClient::call plus an
 * in-process replay through serve::resolveTrace, store::digestCvpTrace
 * and the store.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "convert/cvp2champsim.hh"
#include "par/thread_pool.hh"
#include "pipeline/o3core.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "store/digest.hh"
#include "store/store.hh"

namespace perfbench
{

namespace
{

using namespace trb;
using serve::ServeReply;
using serve::ServeRequest;

constexpr std::uint64_t kServeLength = 50000;
constexpr unsigned kClients = 2;
/** Requests each plain client keeps outstanding. */
constexpr unsigned kWindow = 2;
// Pool threads that execute requests.  A ThreadPool counts the thread
// that calls parallelFor() as worker 0, and no daemon thread ever does,
// so kWorkers executing threads need a pool of kWorkers + 1 jobs.
constexpr std::size_t kWorkers = 2;
// Each cold request writes a ~3.3 MB trace artifact; one in 32 keeps a
// run's disk writes near 1 GB while still giving ~300 cold samples.
constexpr unsigned kColdOneIn = 32;
constexpr double kIpc1Warmup = 0.5;
const char *const kKinds[] = {"int", "fp", "crypto", "server", "membound"};

/** Share of a traced run spent on plain (unreplayed) requests. */
constexpr double kPlainShare = 0.4;

ServeRequest
simRequest(const std::string &kind, std::uint64_t seed, bool all, bool ipc1)
{
    ServeRequest r;
    r.op = serve::Op::Sim;
    r.trace = "preset:" + kind + ":" + std::to_string(seed);
    r.length = kServeLength;
    r.imps = all ? kAllImps : kImpNone;
    r.ipc1 = ipc1;
    r.warmupFraction = ipc1 ? kIpc1Warmup : 0.0;
    return r;
}

std::string
requestKey(const ServeRequest &r)
{
    return r.trace + ";" + improvementSetName(r.imps) + ";" +
           (r.ipc1 ? "ipc1" : "modern");
}

SimRequest
directRequest(const ServeRequest &r)
{
    return {.imps = r.imps,
            .params = r.ipc1 ? ipc1Config() : modernConfig(),
            .warmupFraction = r.warmupFraction,
            .useStore = false};
}

/** The warm set: presets x {No_imp, All_imps} x {modern, ipc1}. */
std::vector<ServeRequest>
warmSet()
{
    std::vector<ServeRequest> set;
    for (const char *kind : kKinds)
        for (std::uint64_t seed : {1, 2})
            for (bool all : {false, true})
                for (bool ipc1 : {false, true})
                    set.push_back(simRequest(kind, seed, all, ipc1));
    return set;
}

/** One client's seeded request stream. */
class RequestStream
{
  public:
    RequestStream(std::uint64_t seed, unsigned client,
                  const std::vector<ServeRequest> &warm)
        : rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1), warm_(warm)
    {}

    ServeRequest
    next(bool &cold)
    {
        cold = rng_.below(kColdOneIn) == 0;
        if (!cold)
            return warm_[rng_.below(warm_.size())];
        const char *kind = kKinds[rng_.below(std::size(kKinds))];
        // Warm seeds are 1 and 2; fresh ones never collide with them.
        const std::uint64_t seed = 1000000 + rng_.below(1000000000);
        const bool all = rng_.below(2) != 0;
        const bool ipc1 = rng_.below(2) != 0;
        return simRequest(kind, seed, all, ipc1);
    }

  private:
    Rng rng_;
    const std::vector<ServeRequest> &warm_;
};

/** One answered request. */
struct Sample
{
    ServeRequest req;
    bool cold = false;
    bool ok = false;
    double ms = 0.0;
    double directMs = 0.0;   //!< traced phase: in-process replay time
    double startS = 0.0;     //!< send time, seconds into the phase
    SimStats stats;
};

/** A running daemon with its pool and store directory. */
struct Daemon
{
    std::string dir;
    std::string socket;
    std::unique_ptr<par::ThreadPool> pool;
    std::unique_ptr<serve::ServeDaemon> daemon;

    ~Daemon() { stop(); }

    void
    stop()
    {
        if (daemon)
            daemon->stop();
        daemon.reset();
        pool.reset();
    }
};

std::uint64_t
counter(const ServeReply &stats, const std::string &name)
{
    return static_cast<std::uint64_t>(
        stats.raw.number("counters/" + name, 0.0));
}

ServeReply
statsSnapshot(const std::string &socket)
{
    serve::ServeClient c;
    ServeReply reply;
    if (!c.connect(socket, 2000).ok() || !c.stats(reply).ok())
        throw std::runtime_error("stats op failed on " + socket);
    return reply;
}

/**
 * Set up a daemon on a fresh store under @p dir and fill the warm set
 * through it (two clients, half the set each).
 */
void
startDaemon(Daemon &d, const std::string &dir,
            const std::vector<ServeRequest> &warm)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    d.dir = dir;
    d.socket = dir + "/sock";
    store::Store::setDirForTesting(dir + "/store");
    d.pool = std::make_unique<par::ThreadPool>(kWorkers + 1);
    serve::ServeConfig cfg;
    cfg.socketPath = d.socket;
    d.daemon = std::make_unique<serve::ServeDaemon>(cfg, d.pool.get());
    if (Status st = d.daemon->start(); !st.ok())
        throw std::runtime_error("daemon start: " + st.toString());

    std::atomic<bool> failed{false};
    std::vector<std::thread> fill;
    for (unsigned c = 0; c < kClients; ++c)
        fill.emplace_back([&, c] {
            serve::ServeClient client;
            if (!client.connect(d.socket, 2000).ok()) {
                failed = true;
                return;
            }
            for (std::size_t i = c; i < warm.size(); i += kClients) {
                ServeReply reply;
                if (!client.call(warm[i], reply).ok() || !reply.ok)
                    failed = true;
            }
        });
    for (std::thread &t : fill)
        t.join();
    if (failed)
        throw std::runtime_error("warm-set fill failed");
}

/**
 * Plain closed-loop clients on @p socket until @p seconds pass; returns
 * wall s.  Each client keeps kWindow requests outstanding and sends the
 * next one only when a reply arrives, so the executors always find queued
 * work: a reply's time is then queueing plus service, and does not hinge
 * on how fast an idle worker thread is woken.
 */
double
drivePlain(const Daemon &d, const std::string &socket, double seconds,
           std::vector<std::vector<Sample>> &out,
           std::vector<RequestStream> &streams, std::size_t &maxDepth)
{
    out.assign(kClients, {});
    std::vector<double> finish(kClients, 0.0);
    std::atomic<std::size_t> depth{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            std::vector<Sample> &mine = out[c];
            serve::ServeClient client;
            if (!client.connect(socket, 2000).ok())
                return;   // no samples: checkClients() fails this client
            std::size_t outstanding = 0;
            auto send = [&] {
                Sample s;
                s.req = streams[c].next(s.cold);
                s.req.id = std::to_string(mine.size());
                s.startS = secondsSince(t0);
                const bool sent = client.send(s.req).ok();
                mine.push_back(std::move(s));
                outstanding += sent;
                return sent;
            };
            bool live = true;
            for (unsigned w = 0; w < kWindow && live; ++w)
                live = send();
            while (live && outstanding > 0) {
                ServeReply reply;
                if (!client.recv(reply).ok())
                    break;
                --outstanding;
                const std::size_t i = std::strtoull(reply.id.c_str(), nullptr, 10);
                if (i >= mine.size())
                    break;
                Sample &s = mine[i];
                s.ms = (secondsSince(t0) - s.startS) * 1e3;
                s.ok = reply.ok;
                s.stats = reply.stats;
                std::size_t now = 0;
                for (std::size_t q : d.pool->queueDepths())
                    now += q;
                std::size_t prev = depth.load();
                while (now > prev && !depth.compare_exchange_weak(prev, now)) {
                }
                if (secondsSince(t0) < seconds)
                    live = send();
            }
            finish[c] = secondsSince(t0);
        });
    for (std::thread &t : threads)
        t.join();
    maxDepth = depth.load();
    return *std::max_element(finish.begin(), finish.end());
}

/**
 * A client that could not connect, or got no successful reply, leaves no
 * sample for verify() to fail: count it as a failure of its own, so a
 * daemon that refuses every connection cannot pass.
 */
void
checkClients(const std::vector<std::vector<Sample>> &perClient,
             Report &report)
{
    for (std::size_t c = 0; c < perClient.size(); ++c) {
        bool answered = false;
        for (const Sample &s : perClient[c])
            answered = answered || s.ok;
        report.check(answered, "serve-mixed client " + std::to_string(c) +
                                   " got no reply");
    }
}

/**
 * Check every reply against a direct, storeless simulate() of the same
 * request (and warm ones against the reference digests).  Returns the
 * simulation rate of the cold requests' direct runs in Minstr/s:
 * converted records over the seconds of Cvp2ChampSim::convert plus
 * simulate(), one request at a time, so neither queueing in the daemon
 * nor trace generation, digesting or the store is in it.
 */
double
verify(std::vector<Sample *> &samples, const std::map<std::string, RowRef> &refRows,
       bool flip, Report &report)
{
    // Direct results of the warm set, once per distinct request.
    std::map<std::string, std::vector<std::uint64_t>> warmBits;
    for (const ServeRequest &r : warmSet()) {
        Expected<CvpTrace> cvp = serve::resolveTrace(r);
        SimStats s = simulate(cvp.value(), directRequest(r)).stats;
        RowDigest digest;
        digest.add(s);
        auto it = refRows.find(requestKey(r));
        report.check(it != refRows.end() && it->second.digest == digest.hex(),
                     "serve-mixed reference " + requestKey(r));
        warmBits[requestKey(r)] = s.toBits();
    }

    // Cold requests run serially, each on the next CPU (as the sweeps'
    // rows do), so their timing is steady.
    std::vector<std::vector<std::uint64_t>> coldBits(samples.size());
    double records = 0.0, simS = 0.0;
    long turn = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = *samples[i];
        if (!s.cold || !s.ok)
            continue;
        Expected<CvpTrace> cvp = serve::resolveTrace(s.req);
        if (!cvp.ok())
            continue;
        rotateCpu(turn++);
        const auto t0 = Clock::now();
        const ChampSimTrace trace =
            Cvp2ChampSim(s.req.imps).convert(cvp.value());
        coldBits[i] = simulate(ChampSimView(trace), directRequest(s.req))
                          .stats.toBits();
        simS += secondsSince(t0);
        records += static_cast<double>(trace.size());
    }
    rotateCpu(-1);

    for (std::size_t i = 0; i < samples.size(); ++i) {
        Sample &s = *samples[i];
        if (flip && i == 0)
            flipOneBit(s.stats);
        const std::vector<std::uint64_t> got = s.stats.toBits();
        bool ok = s.ok;
        if (ok && s.cold) {
            ok = got == coldBits[i];
        } else if (ok) {
            auto it = warmBits.find(requestKey(s.req));
            ok = it != warmBits.end() && it->second == got;
        }
        report.check(ok, "serve-mixed reply " + requestKey(s.req));
    }
    return simS > 0.0 ? records / 1e6 / simS : 0.0;
}

std::vector<Sample *>
flatten(std::vector<std::vector<Sample>> &perClient)
{
    std::vector<Sample *> all;
    for (std::vector<Sample> &v : perClient)
        for (Sample &s : v)
            all.push_back(&s);
    return all;
}

std::vector<double>
latencies(const std::vector<Sample *> &samples, int cls)
{
    std::vector<double> ms;
    for (const Sample *s : samples)
        if (cls < 0 || s->cold == (cls == 1))
            ms.push_back(s->ms);
    return ms;
}

std::string
classLine(const char *what, const std::vector<double> &ms, double pa,
          double pb)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s: p%.0f %.3f ms, p%.0f %.3f ms (%zu samples)",
                  what, pa, percentile(ms, pa), pb, percentile(ms, pb),
                  ms.size());
    return buf;
}

/** Replay one request in-process under spans; returns its duration. */
double
replayRequest(const Sample &s, SpanLog &log, std::uint64_t id,
              store::Store &daemonStore, store::Store &putStore,
              std::map<std::string, std::uint64_t> &counts, Report &report)
{
    const auto t0 = Clock::now();
    Expected<CvpTrace> cvp = [&] {
        SpanScope span(&log, "serve.resolveTrace", id);
        return serve::resolveTrace(s.req);
    }();
    if (!cvp.ok()) {
        report.check(false, "resolveTrace " + s.req.trace);
        return 0.0;
    }
    counts["generated"] += cvp.value().size();
    store::Digest digest;
    {
        SpanScope span(&log, "store.digest", id);
        digest = store::digestCvpTrace(cvp.value());
    }
    SimRequest req = directRequest(s.req);
    SimStats stats;
    if (!s.cold) {
        SpanScope span(&log, "store.lookup", id);
        req.useStore = true;
        req.store = &daemonStore;
        req.cvpDigest = &digest;
        SimResult r = simulate(cvp.value(), req);
        stats = r.stats;
        report.check(r.statsFromStore, "warm lookup " + requestKey(s.req));
    } else {
        ChampSimTrace trace;
        {
            SpanScope span(&log, "convert", id);
            trace = Cvp2ChampSim(s.req.imps).convert(cvp.value());
        }
        counts["convertedIn"] += cvp.value().size();
        counts["convertedOut"] += trace.size();
        {
            SpanScope span(&log, "pipeline", id);
            O3Core core(req.params);
            stats = core.run(trace, static_cast<std::uint64_t>(
                                        req.warmupFraction *
                                        static_cast<double>(trace.size())));
        }
        counts["simulated"] += trace.size();
        SpanScope span(&log, "store.put", id);
        const std::string key = "perfbench;" + requestKey(s.req) + ";" +
                                digest.hex();
        putStore.putTrace(key, trace);
        putStore.putBits(key, stats.toBits());
    }
    report.check(!s.ok || stats.toBits() == s.stats.toBits(),
                 "replayed " + requestKey(s.req));
    return secondsSince(t0) * 1e3;
}

void
reportServeLayers(const std::vector<SpanLog> &logs,
                  const std::vector<double> &threadWallS,
                  const std::map<std::string, std::uint64_t> &counts,
                  const std::vector<Sample *> &plain,
                  const std::vector<Sample *> &traced,
                  const std::vector<Sample *> &untraced,
                  const ServeReply &before, const ServeReply &mid,
                  const ServeReply &after, std::uint64_t steals,
                  std::size_t maxDepth, Report &report)
{
    std::map<std::string, SpanTotals> t;
    double unattributed = 0.0, wall = 0.0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
        summarize(logs[i], t);
        const std::string bad = checkSpans(logs[i]);
        report.check(bad.empty(), "span log: " + bad);
        unattributed += threadWallS[i] - rootSeconds(logs[i]);
        wall += threadWallS[i];
    }
    auto count = [&](const char *k) {
        auto it = counts.find(k);
        return static_cast<double>(it == counts.end() ? 0 : it->second);
    };
    auto mean = [](const SpanTotals &s) {
        return s.count ? s.totalS * 1e3 / static_cast<double>(s.count) : 0.0;
    };
    auto per = [](double a, double b) { return b != 0.0 ? a / b : 0.0; };

    const SpanTotals &gen = t["serve.resolveTrace"];
    const SpanTotals &conv = t["convert"];
    const SpanTotals &pipe = t["pipeline"];
    report.set("synth.generate_ms", mean(gen));
    report.set("synth.minstr_per_s", per(count("generated") / 1e6, gen.totalS));
    report.set("convert.convert_ms", mean(conv));
    report.set("convert.minstr_per_s",
               per(count("convertedIn") / 1e6, conv.totalS));
    report.set("convert.uops_per_instr",
               per(count("convertedOut"), count("convertedIn")));
    report.set("pipeline.run_ms", mean(pipe));
    report.set("pipeline.minstr_per_s",
               per(count("simulated") / 1e6, pipe.totalS));
    report.set("pipeline.wall_share", per(pipe.totalS, t["request"].totalS));

    // Exact simulated-machine counts over every plain reply.
    std::uint64_t instr = 0, br = 0, misp = 0, l1iA = 0, l1iM = 0, l1dA = 0,
                  l1dM = 0, l2A = 0, llcA = 0, merges = 0, pf = 0;
    for (const Sample *s : plain) {
        if (!s->ok)
            continue;
        const SimStats &x = s->stats;
        instr += x.instructions;
        br += x.branches;
        misp += x.branchMispredicts;
        l1iA += x.l1iAccesses;
        l1iM += x.l1iMisses;
        l1dA += x.l1dAccesses;
        l1dM += x.l1dMisses;
        l2A += x.l2Accesses;
        llcA += x.llcAccesses;
        merges += x.l1iMshrMerges + x.l1dMshrMerges;
        pf += x.prefetchesIssued;
    }
    auto pki = [&](std::uint64_t v) {
        return per(1000.0 * static_cast<double>(v), static_cast<double>(instr));
    };
    report.set("cache.l1i.apki", pki(l1iA));
    report.set("cache.l1d.apki", pki(l1dA));
    report.set("cache.l2.apki", pki(l2A));
    report.set("cache.llc.apki", pki(llcA));
    report.set("cache.l1i.miss_ratio",
               per(static_cast<double>(l1iM), static_cast<double>(l1iA)));
    report.set("cache.l1d.miss_ratio",
               per(static_cast<double>(l1dM), static_cast<double>(l1dA)));
    report.set("cache.mshr_merges_pki", pki(merges));
    report.set("cache.prefetches_pki", pki(pf));
    report.set("uarch.branches_pki", pki(br));
    report.set("uarch.mispredicts_pki", pki(misp));

    report.set("store.digest_ms", mean(t["store.digest"]));
    report.set("store.lookup_ms", mean(t["store.lookup"]));
    report.set("store.put_ms", mean(t["store.put"]));
    auto delta = [&](const ServeReply &a, const ServeReply &b,
                     const char *name) {
        return static_cast<double>(counter(b, name) - counter(a, name));
    };
    const double hits = delta(before, mid, "store.hits");
    const double lookups = hits + delta(before, mid, "store.misses");
    std::uint64_t plainCold = 0;
    for (const Sample *s : plain)
        plainCold += s->cold;
    report.set("store.hit_ratio", per(hits, lookups));
    report.set("store.lookups", lookups);
    report.set("store.bytes_per_cold",
               per(delta(before, mid, "store.write_bytes"),
                   static_cast<double>(plainCold)));

    std::vector<double> overhead;
    for (const Sample *s : traced)
        if (s->ok)
            overhead.push_back(s->ms - s->directMs);
    report.set("serve.overhead_ms", median(overhead));
    report.set("serve.rejected_busy",
               delta(before, after, "serve.rejected.busy"));
    report.set("serve.timeouts",
               delta(before, after, "serve.timeout.queued") +
                   delta(before, after, "serve.timeout.cancelled"));
    const std::vector<double> warmMs = latencies(plain, 0);
    const std::vector<double> coldMs = latencies(plain, 1);
    report.set("serve.warm_p50_ms", percentile(warmMs, 50));
    report.set("serve.warm_p99_ms", percentile(warmMs, 99));
    report.set("serve.cold_p50_ms", percentile(coldMs, 50));
    report.set("serve.cold_p90_ms", percentile(coldMs, 90));
    report.set("serve.warm_samples", static_cast<double>(warmMs.size()));
    report.set("serve.cold_samples", static_cast<double>(coldMs.size()));

    report.set("par.steals_per_kreq",
               per(1000.0 * static_cast<double>(steals),
                   static_cast<double>(plain.size())));
    report.set("par.max_queue_depth", static_cast<double>(maxDepth));

    const double warmUntraced = percentile(latencies(untraced, 0), 50);
    report.set("trace.overhead_share",
               per(percentile(latencies(traced, 0), 50) - warmUntraced,
                   warmUntraced));
    report.set("trace.unattributed_share", per(unattributed, wall));
    double spans = 0;
    for (const SpanLog &log : logs)
        spans += static_cast<double>(log.spans().size());
    report.set("trace.spans", spans);
}

} // namespace

void
runServeMixed(const Options &opt, const Reference &ref, Report &report)
{
    auto refIt = ref.find("serve-mixed");
    if (refIt == ref.end())
        throw std::runtime_error("reference has no serve-mixed section");
    const std::vector<ServeRequest> warm = warmSet();

    // Set-up: fresh store, daemon start, warm-set fill.  Repeated (the
    // untraced run only); the median is setup_s and the last daemon
    // serves the timed phase.
    Daemon d;
    std::vector<double> setups;
    const int repeats = opt.trace ? 1 : kSetupRepeats;
    for (int k = 0; k < repeats; ++k) {
        d.stop();
        if (!d.dir.empty())
            std::filesystem::remove_all(d.dir);
        const auto t0 = Clock::now();
        startDaemon(d, opt.workDir + "/d" + std::to_string(k), warm);
        setups.push_back(secondsSince(t0));
    }

    std::vector<RequestStream> streams;
    for (unsigned c = 0; c < kClients; ++c)
        streams.emplace_back(opt.seed, c, warm);

    // Test hook: the timed clients dial a socket nobody listens on.
    const std::string clientSocket =
        opt.refuseConnect ? d.socket + ".refused" : d.socket;

    if (!opt.trace) {
        report.set("setup_s", median(setups));
        std::vector<std::vector<Sample>> perClient;
        std::size_t maxDepth = 0;
        const double wall = drivePlain(d, clientSocket, opt.seconds,
                                       perClient, streams, maxDepth);
        // Before verification: its direct re-simulations are not part of
        // what the daemon's users see.
        report.note("peak RSS " + std::to_string(peakRssMb()) + " MiB");
        d.stop();
        // Deleting the store drops its unwritten pages, so the kernel
        // does not flush the run's ~1 GB of artifacts while the direct
        // runs below are timed.
        std::filesystem::remove_all(d.dir);
        checkClients(perClient, report);
        std::vector<Sample *> all = flatten(perClient);
        // The cold requests' simulation rate, timed on the direct runs
        // the check makes: a reply's own time would also hold queueing,
        // trace generation, digesting and the store write.
        report.set("sim_minstr_per_s",
                   verify(all, refIt->second, opt.flipBit, report));

        const std::vector<double> allMs = latencies(all, -1);
        report.set("req_per_s",
                   wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0);
        report.set("p50_ms", percentile(allMs, 50));
        report.set("p90_ms", percentile(allMs, 90));
        report.note(classLine("all replies", allMs, 50, 90));
        report.note(classLine("warm", latencies(all, 0), 50, 99));
        report.note(classLine("cold", latencies(all, 1), 50, 90));
        std::size_t slow = 0;
        for (const Sample *x : all)
            slow += x->ms > 100.0;
        report.note("replies over 100 ms: " + std::to_string(slow));
        return;
    }

    // Traced: plain part first (class split, hit ratio, pool counters).
    const ServeReply before = statsSnapshot(d.socket);
    const std::uint64_t steals0 = d.pool->stealCount();
    std::vector<std::vector<Sample>> plainClient;
    std::size_t maxDepth = 0;
    drivePlain(d, clientSocket, opt.seconds * kPlainShare, plainClient,
               streams, maxDepth);
    checkClients(plainClient, report);
    const std::uint64_t steals = d.pool->stealCount() - steals0;
    const ServeReply mid = statsSnapshot(d.socket);

    // Traced part: the stream continues one request at a time per
    // client, alternating a plain request with a traced one -- spans
    // around the call, then an in-process replay.  The plain ones are
    // the untraced baseline for the tracing overhead.
    store::Store daemonStore(d.dir + "/store");
    std::vector<std::vector<Sample>> tracedClient(kClients);
    std::vector<std::vector<Sample>> untracedClient(kClients);
    std::vector<double> untracedS(kClients, 0.0);
    std::vector<SpanLog> logs;
    for (unsigned c = 0; c < kClients; ++c)
        logs.emplace_back(c);
    std::vector<double> threadWall(kClients, 0.0);
    std::vector<std::map<std::string, std::uint64_t>> counts(kClients);
    std::vector<Report> checks(kClients);
    const double tracedSeconds = opt.seconds * (1.0 - kPlainShare);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            store::Store putStore(d.dir + "/put" + std::to_string(c));
            serve::ServeClient client;
            if (!client.connect(d.socket, 2000).ok()) {
                checks[c].check(false, "connect");
                return;
            }
            const auto t0 = Clock::now();
            for (std::uint64_t id = c; secondsSince(t0) < tracedSeconds;
                 id += kClients) {
                Sample s;
                s.req = streams[c].next(s.cold);
                if ((id / kClients) % 2) {
                    ServeReply reply;
                    const auto t = Clock::now();
                    Status st = client.call(s.req, reply);
                    s.ms = msBetween(t, Clock::now());
                    untracedS[c] += s.ms / 1e3;
                    checks[c].check(st.ok() && reply.ok,
                                    "untraced reply " + requestKey(s.req));
                    untracedClient[c].push_back(std::move(s));
                    continue;
                }
                SpanScope span(&logs[c], "request", id);
                ServeReply reply;
                {
                    SpanScope call(&logs[c], "serve.call", id);
                    const auto t = Clock::now();
                    Status st = client.call(s.req, reply);
                    s.ms = msBetween(t, Clock::now());
                    s.ok = st.ok() && reply.ok;
                }
                s.stats = reply.stats;
                checks[c].check(s.ok, "traced reply " + requestKey(s.req));
                s.directMs = replayRequest(s, logs[c], id, daemonStore,
                                           putStore, counts[c], checks[c]);
                tracedClient[c].push_back(std::move(s));
            }
            threadWall[c] = secondsSince(t0);
        });
    for (std::thread &t : threads)
        t.join();
    const ServeReply after = statsSnapshot(d.socket);

    std::vector<Sample *> plain = flatten(plainClient);
    std::vector<Sample *> traced = flatten(tracedClient);
    std::vector<Sample *> untraced = flatten(untracedClient);
    for (unsigned c = 0; c < kClients; ++c)
        threadWall[c] -= untracedS[c];
    d.stop();
    verify(plain, refIt->second, opt.flipBit, report);
    std::map<std::string, std::uint64_t> merged;
    for (unsigned c = 0; c < kClients; ++c) {
        report.attempted += checks[c].attempted;
        report.failed += checks[c].failed;
        for (const std::string &n : checks[c].notes)
            report.note(n);
        for (const auto &[k, v] : counts[c])
            merged[k] += v;
    }

    std::vector<const SpanLog *> logPtrs;
    for (const SpanLog &log : logs)
        logPtrs.push_back(&log);
    if (!writeSpans(opt.workDir + "/spans.json", logPtrs))
        report.note("could not write " + opt.workDir + "/spans.json");
    reportServeLayers(logs, threadWall, merged, plain, traced, untraced,
                      before, mid,
                      after, steals, maxDepth, report);
}

void
buildServeReference(Reference &ref)
{
    for (const ServeRequest &r : warmSet()) {
        Expected<CvpTrace> cvp = serve::resolveTrace(r);
        SimStats s = simulate(cvp.value(), directRequest(r)).stats;
        RowDigest digest;
        digest.add(s);
        ref["serve-mixed"][requestKey(r)] = {digest.hex(), 0};
    }
}

} // namespace perfbench
