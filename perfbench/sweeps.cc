/**
 * @file
 * The two sweep workloads.  fig1-cold runs the paper's Figure 1 sweep
 * (No_imp plus the nine figureOneSets() under modernConfig()) and
 * ipc1-ipref the Table 3 shape (two conversions, each simulated with no
 * prefetcher and each IPC-1 prefetcher under ipc1Config() with 50%%
 * warm-up).  Both run on one worker with no store, one suite trace (a
 * "row") at a time, in a seeded order over the whole suite.
 *
 * The untraced run drives each row through the experiment harness;
 * the traced run drives the same rows through the layer calls
 * (TraceGenerator::generate, Cvp2ChampSim::convert, O3Core::run) with
 * a span around each, and also times the harness on the same row.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.hh"
#include "convert/cvp2champsim.hh"
#include "experiments/experiment.hh"
#include "ipref/instr_prefetcher.hh"
#include "par/thread_pool.hh"
#include "pipeline/o3core.hh"
#include "replay.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace perfbench
{

namespace
{

using namespace trb;

constexpr std::uint64_t kFig1Length = 50000;
// Temporal prefetchers need history reuse: longer than the figures,
// shorter than tab3's 200000 so a run still sees ~100 rows.
constexpr std::uint64_t kIpc1Length = 100000;
constexpr double kIpc1Warmup = 0.5;
constexpr ImprovementSet kIpc1Convs[2] = {kImpNone, kIpc1Imps};

/** Share of a traced run's seconds spent on rows; the rest replays. */
constexpr double kTracedRowShare = 0.85;

/** The outcome of one row: its digest and the records it simulated. */
struct RowResult
{
    std::string digest;
    std::uint64_t records = 0;
};

/** Exact counts accumulated over traced rows (times come from spans). */
struct LayerCounts
{
    std::uint64_t generated = 0;      //!< CVP instructions generated
    std::uint64_t convertedIn = 0;    //!< CVP instructions converted
    std::uint64_t convertedOut = 0;   //!< ChampSim records produced
    std::uint64_t simulated = 0;      //!< records passed to O3Core::run

    /** Summed measurement-phase statistics of every cell. */
    std::uint64_t instructions = 0, branches = 0, mispredicts = 0;
    std::uint64_t l1iAcc = 0, l1iMiss = 0, l1dAcc = 0, l1dMiss = 0;
    std::uint64_t l2Acc = 0, llcAcc = 0, mshrMerges = 0, prefetches = 0;

    /** O3Core::run seconds per prefetcher ("no" = none). */
    std::map<std::string, double> runSeconds;
    /** Prefetches a prefetcher issued beyond the no-prefetcher run. */
    std::int64_t iprefPrefetches = 0;
    std::uint64_t iprefInstructions = 0;

    void
    add(const SimStats &s)
    {
        instructions += s.instructions;
        branches += s.branches;
        mispredicts += s.branchMispredicts;
        l1iAcc += s.l1iAccesses;
        l1iMiss += s.l1iMisses;
        l1dAcc += s.l1dAccesses;
        l1dMiss += s.l1dMisses;
        l2Acc += s.l2Accesses;
        llcAcc += s.llcAccesses;
        mshrMerges += s.l1iMshrMerges + s.l1dMshrMerges;
        prefetches += s.prefetchesIssued;
    }
};

/** Generate a row's CVP trace under a span. */
CvpTrace
generateTraced(const TraceSpec &spec, SpanLog *log, std::uint64_t id,
               LayerCounts *counts)
{
    SpanScope span(log, "synth.generate", id);
    CvpTrace cvp = TraceGenerator(spec.params).generate(spec.length);
    if (counts)
        counts->generated += cvp.size();
    return cvp;
}

/** Convert under a span. */
ChampSimTrace
convertTraced(const CvpTrace &cvp, ImprovementSet imps, SpanLog *log,
              std::uint64_t id, LayerCounts *counts)
{
    SpanScope span(log, "convert", id);
    ChampSimTrace trace = Cvp2ChampSim(imps).convert(cvp);
    if (counts) {
        counts->convertedIn += cvp.size();
        counts->convertedOut += trace.size();
    }
    return trace;
}

/** O3Core::run under a span, exactly as simulate() runs it storeless. */
SimStats
runTraced(const ChampSimTrace &trace, const CoreParams &params,
          InstrPrefetcher *ipref, double warmupFraction, SpanLog *log,
          std::uint64_t id, LayerCounts *counts)
{
    const auto t0 = Clock::now();
    SimStats stats;
    {
        SpanScope span(log, "pipeline", id);
        O3Core core(params, ipref);
        stats = core.run(trace, static_cast<std::uint64_t>(
                                    warmupFraction *
                                    static_cast<double>(trace.size())));
    }
    if (counts) {
        counts->simulated += trace.size();
        counts->runSeconds[ipref ? ipref->name() : "no"] +=
            secondsSince(t0);
        counts->add(stats);
    }
    return stats;
}

// ---- fig1-cold -----------------------------------------------------

RowResult
fig1HarnessRow(const TraceSpec &spec, bool flip)
{
    std::vector<SimStats> base;
    std::vector<DeltaSeries> series = runImprovementSweep(
        {spec}, figureOneSets(), modernConfig(), &base);
    RowResult row;
    if (base.size() != 1)
        return row;
    if (flip)
        flipOneBit(base[0]);
    RowDigest digest;
    digest.add(base[0]);
    for (const DeltaSeries &s : series)
        digest.add(s.ratio.at(0));
    row.digest = digest.hex();
    return row;
}

RowResult
fig1TracedRow(const TraceSpec &spec, SpanLog *log, std::uint64_t id,
              LayerCounts *counts, ChampSimTrace *keepBase, bool flip)
{
    const CoreParams params = modernConfig();
    RowResult row;
    RowDigest digest;
    {
        SpanScope span(log, "row", id);
        const CvpTrace cvp = generateTraced(spec, log, id, counts);
        auto cell = [&](ImprovementSet imps, ChampSimTrace *keep) {
            SpanScope cellSpan(log, "cell", id);
            ChampSimTrace trace = convertTraced(cvp, imps, log, id, counts);
            SimStats stats =
                runTraced(trace, params, nullptr, 0.0, log, id, counts);
            row.records += trace.size();
            if (keep)
                *keep = std::move(trace);
            return stats;
        };
        SimStats base = cell(kImpNone, keepBase);
        if (flip)
            flipOneBit(base);
        digest.add(base);
        for (const NamedSet &s : figureOneSets())
            digest.add(cell(s.set, nullptr).ipc() / base.ipc());
    }
    row.digest = digest.hex();
    return row;
}

// ---- ipc1-ipref ----------------------------------------------------

RowResult
ipc1HarnessRow(const TraceSpec &spec, bool flip)
{
    const CoreParams params = ipc1Config();
    RowResult row;
    RowDigest digest;
    forEachTrace({spec}, [&](std::size_t, const TraceSpec &,
                             const CvpTrace &cvp) {
        for (ImprovementSet imps : kIpc1Convs) {
            ChampSimTrace trace = Cvp2ChampSim(imps).convert(cvp);
            SimStats base = simulate(ChampSimView(trace),
                                     {.params = params,
                                      .warmupFraction = kIpc1Warmup})
                                .stats;
            if (flip && imps == kImpNone)
                flipOneBit(base);
            digest.add(base);
            for (const std::string &name : ipc1PrefetcherNames()) {
                auto pf = makeInstrPrefetcher(name);
                digest.add(simulate(ChampSimView(trace),
                                    {.params = params,
                                     .warmupFraction = kIpc1Warmup,
                                     .ipref = pf.get()})
                               .stats);
            }
            row.records += trace.size() * (1 + ipc1PrefetcherNames().size());
        }
    });
    row.digest = digest.hex();
    return row;
}

RowResult
ipc1TracedRow(const TraceSpec &spec, SpanLog *log, std::uint64_t id,
              LayerCounts *counts, ChampSimTrace *keepBase, bool flip)
{
    const CoreParams params = ipc1Config();
    RowResult row;
    RowDigest digest;
    {
        SpanScope span(log, "row", id);
        const CvpTrace cvp = generateTraced(spec, log, id, counts);
        for (ImprovementSet imps : kIpc1Convs) {
            ChampSimTrace trace = convertTraced(cvp, imps, log, id, counts);
            SimStats base;
            {
                SpanScope cellSpan(log, "cell", id);
                base = runTraced(trace, params, nullptr, kIpc1Warmup, log,
                                 id, counts);
            }
            if (flip && imps == kImpNone)
                flipOneBit(base);
            digest.add(base);
            for (const std::string &name : ipc1PrefetcherNames()) {
                SpanScope cellSpan(log, "cell", id);
                auto pf = makeInstrPrefetcher(name);
                SimStats s = runTraced(trace, params, pf.get(), kIpc1Warmup,
                                       log, id, counts);
                digest.add(s);
                if (counts) {
                    counts->iprefPrefetches +=
                        static_cast<std::int64_t>(s.prefetchesIssued) -
                        static_cast<std::int64_t>(base.prefetchesIssued);
                    counts->iprefInstructions += s.instructions;
                }
            }
            row.records += trace.size() * (1 + ipc1PrefetcherNames().size());
            if (imps == kImpNone && keepBase)
                *keepBase = std::move(trace);
        }
    }
    row.digest = digest.hex();
    return row;
}

// ---- shared by both sweeps ----------------------------------------

struct SweepKind
{
    const char *name;
    std::vector<TraceSpec> (*suite)();
    CoreParams (*params)();
    unsigned cellsPerRow;
    RowResult (*harnessRow)(const TraceSpec &, bool);
    /** The row through the layer calls; @p keepBase (optional)
     *  receives the No_imp conversion for the replay streams. */
    RowResult (*tracedRow)(const TraceSpec &, SpanLog *, std::uint64_t,
                           LayerCounts *, ChampSimTrace *keepBase, bool);
};

std::vector<TraceSpec>
fig1Suite()
{
    return cvp1PublicSuite(kFig1Length);
}

std::vector<TraceSpec>
ipc1SuiteLong()
{
    return ipc1Suite(kIpc1Length);
}

const SweepKind kFig1{"fig1-cold", fig1Suite, modernConfig, 10,
                      fig1HarnessRow, fig1TracedRow};
const SweepKind kIpc1{"ipc1-ipref", ipc1SuiteLong, ipc1Config,
                      2 * 9, ipc1HarnessRow, ipc1TracedRow};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
pki(std::uint64_t events, std::uint64_t instructions)
{
    return ratio(1000.0 * static_cast<double>(events),
                 static_cast<double>(instructions));
}

void
reportLayers(const SweepKind &kind, const SpanLog &log,
             const LayerCounts &c, const ReplayCost &cost, double rowsS,
             double harnessS, double harnessPartsS, std::uint64_t rows,
             double phaseS, Report &report)
{
    std::map<std::string, SpanTotals> t;
    summarize(log, t);
    const SpanTotals &gen = t["synth.generate"];
    const SpanTotals &conv = t["convert"];
    const SpanTotals &pipe = t["pipeline"];

    report.set("synth.generate_ms", ratio(gen.totalS * 1e3,
                                          static_cast<double>(gen.count)));
    report.set("synth.minstr_per_s",
               ratio(static_cast<double>(c.generated) / 1e6, gen.totalS));
    report.set("convert.convert_ms", ratio(conv.totalS * 1e3,
                                           static_cast<double>(conv.count)));
    report.set("convert.minstr_per_s",
               ratio(static_cast<double>(c.convertedIn) / 1e6, conv.totalS));
    report.set("convert.uops_per_instr",
               ratio(static_cast<double>(c.convertedOut),
                     static_cast<double>(c.convertedIn)));
    report.set("pipeline.run_ms", ratio(pipe.totalS * 1e3,
                                        static_cast<double>(pipe.count)));
    report.set("pipeline.minstr_per_s",
               ratio(static_cast<double>(c.simulated) / 1e6, pipe.totalS));
    report.set("pipeline.wall_share", ratio(pipe.totalS, rowsS));

    report.set("cache.l1i.apki", pki(c.l1iAcc, c.instructions));
    report.set("cache.l1d.apki", pki(c.l1dAcc, c.instructions));
    report.set("cache.l2.apki", pki(c.l2Acc, c.instructions));
    report.set("cache.llc.apki", pki(c.llcAcc, c.instructions));
    report.set("cache.l1i.miss_ratio",
               ratio(static_cast<double>(c.l1iMiss),
                     static_cast<double>(c.l1iAcc)));
    report.set("cache.l1d.miss_ratio",
               ratio(static_cast<double>(c.l1dMiss),
                     static_cast<double>(c.l1dAcc)));
    report.set("cache.mshr_merges_pki", pki(c.mshrMerges, c.instructions));
    report.set("cache.prefetches_pki", pki(c.prefetches, c.instructions));
    report.set("cache.replay_ns_per_access", cost.cacheNsPerAccess);
    report.set("uarch.branches_pki", pki(c.branches, c.instructions));
    report.set("uarch.mispredicts_pki", pki(c.mispredicts, c.instructions));
    report.set("uarch.tage.replay_ns", cost.tageNs);
    report.set("uarch.ittage.replay_ns", cost.ittageNs);
    report.set("uarch.btb.replay_ns", cost.btbNs);

    auto noPf = c.runSeconds.find("no");
    for (const std::string &name : ipc1PrefetcherNames()) {
        auto it = c.runSeconds.find(name);
        if (it != c.runSeconds.end() && noPf != c.runSeconds.end())
            report.set("ipref." + name + ".run_overhead",
                       ratio(it->second, noPf->second));
    }
    if (c.iprefInstructions)
        report.set("ipref.prefetches_pki",
                   1000.0 * static_cast<double>(c.iprefPrefetches) /
                       static_cast<double>(c.iprefInstructions));

    report.set("experiments.harness_ms",
               ratio((harnessS - harnessPartsS) * 1e3,
                     static_cast<double>(rows)));
    report.set("trace.overhead_share", ratio(rowsS - harnessS, harnessS));
    report.set("trace.unattributed_share",
               ratio(phaseS - rootSeconds(log), phaseS));
    report.set("trace.spans", static_cast<double>(log.spans().size()));
    report.note(std::string(kind.name) + " traced: " +
                std::to_string(rows) + " rows, rows " +
                std::to_string(rowsS) + " s traced vs " +
                std::to_string(harnessS) + " s through the harness");
}

void
runSweep(const SweepKind &kind, const Options &opt, const Reference &ref,
         Report &report)
{
    auto refIt = ref.find(kind.name);
    if (refIt == ref.end())
        throw std::runtime_error(std::string("reference has no ") +
                                 kind.name + " section");
    const std::map<std::string, RowRef> &rows = refIt->second;

    // Set-up: suite build, seeded order, reference coverage, and one
    // warm-up row so lazy initialisation stays out of the timed phase.
    // The warm-up row is always the suite's first trace, not one the
    // seed picks, so setup_s does the same work for every seed.
    // Repeated; the median is setup_s.
    std::vector<TraceSpec> suite;
    std::vector<std::size_t> order;
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const auto t0 = Clock::now();
        suite = kind.suite();
        order = permutation(suite.size(), opt.seed);
        rotateCpu(k);
        for (const TraceSpec &spec : suite)
            if (!rows.count(spec.name))
                throw std::runtime_error("reference lacks row " +
                                         spec.name);
        kind.harnessRow(suite[0], false);
        setups.push_back(secondsSince(t0));
    }
    rotateCpu(-1);
    report.set("setup_s", median(setups));

    if (!opt.trace) {
        std::vector<double> latMs;
        std::uint64_t records = 0;
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < opt.seconds) {
            const TraceSpec &spec = suite[order[n % suite.size()]];
            rotateCpu(static_cast<long>(n));
            const auto t = Clock::now();
            RowResult row = kind.harnessRow(spec, opt.flipBit && n == 0);
            latMs.push_back(msBetween(t, Clock::now()));
            const RowRef &want = rows.at(spec.name);
            report.check(row.digest == want.digest,
                         std::string(kind.name) + " row " + spec.name);
            records += want.records;
            ++n;
        }
        const double wall = secondsSince(t0);
        report.note("peak RSS " + std::to_string(peakRssMb()) + " MiB");
        rotateCpu(-1);
        report.set("sim_minstr_per_s",
                   static_cast<double>(records) / 1e6 / wall);
        report.set("req_per_s",
                   static_cast<double>(n * kind.cellsPerRow) / wall);
        report.set("p50_ms", percentile(latMs, 50));
        report.set("p90_ms", percentile(latMs, 90));
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s: %llu rows x %u cells in %.3f s; row latency "
                      "p50/p90 over %zu rows",
                      kind.name, static_cast<unsigned long long>(n),
                      kind.cellsPerRow, wall, latMs.size());
        report.note(buf);
        return;
    }

    SpanLog log;
    LayerCounts counts;
    ReplayStreams streams;
    double rowsS = 0.0, harnessS = 0.0, partsS = 0.0;
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < opt.seconds * kTracedRowShare) {
        const TraceSpec &spec = suite[order[n % suite.size()]];
        const RowRef &want = rows.at(spec.name);
        const bool flip = opt.flipBit && n == 0;
        rotateCpu(static_cast<long>(n));

        // The same row through the harness, as the untraced run does;
        // which of the two goes first alternates so neither always
        // runs on a warmer machine.
        RowResult viaHarness, traced;
        double harnessRowS = 0.0;
        const std::size_t firstSpan = log.spans().size();
        auto harness = [&] {
            const auto th = Clock::now();
            SpanScope span(&log, "experiments.sweep", n);
            viaHarness = kind.harnessRow(spec, flip);
            harnessRowS = secondsSince(th);
        };
        ChampSimTrace base;
        auto tracedRow = [&] {
            const auto tt = Clock::now();
            traced = kind.tracedRow(spec, &log, n, &counts,
                                    streams.full() ? nullptr : &base, flip);
            rowsS += secondsSince(tt);
        };
        if (n % 2) {
            tracedRow();
            harness();
        } else {
            harness();
            tracedRow();
        }
        harnessS += harnessRowS;
        streams.extract(base, kind.params().rules);

        double layerS = 0.0;
        for (std::size_t i = firstSpan; i < log.spans().size(); ++i) {
            const Span &s = log.spans()[i];
            if (s.name == "synth.generate" || s.name == "convert" ||
                s.name == "pipeline")
                layerS += static_cast<double>(s.endNs - s.startNs) * 1e-9;
        }
        partsS += layerS;

        report.check(viaHarness.digest == want.digest,
                     std::string(kind.name) + " harness row " + spec.name);
        report.check(traced.digest == want.digest,
                     std::string(kind.name) + " traced row " + spec.name);
        ++n;
    }
    rotateCpu(-1);
    const ReplayCost cost = replay(streams, kind.params(), &log);
    const double phaseS = secondsSince(t0);

    const std::string bad = checkSpans(log);
    report.check(bad.empty(), "span log: " + bad);
    if (!writeSpans(opt.workDir + "/spans.json", {&log}))
        report.note("could not write " + opt.workDir + "/spans.json");
    reportLayers(kind, log, counts, cost, rowsS, harnessS, partsS, n, phaseS,
                 report);
}

} // namespace

void
runFig1Cold(const Options &opt, const Reference &ref, Report &report)
{
    runSweep(kFig1, opt, ref, report);
}

void
runIpc1Ipref(const Options &opt, const Reference &ref, Report &report)
{
    runSweep(kIpc1, opt, ref, report);
}

void
buildSweepReference(Reference &ref)
{
    for (const SweepKind *kind : {&kFig1, &kIpc1}) {
        const std::vector<TraceSpec> suite = kind->suite();
        std::vector<RowResult> rows(suite.size());
        par::ThreadPool pool(4);
        pool.parallelFor(suite.size(), [&](std::size_t i) {
            rows[i] = kind->tracedRow(suite[i], nullptr, i, nullptr,
                                      nullptr, false);
        });
        for (std::size_t i = 0; i < suite.size(); ++i)
            ref[kind->name][suite[i].name] = {rows[i].digest,
                                              rows[i].records};
    }
}

} // namespace perfbench
