#include "experiments/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "lint/lint.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/span.hh"
#include "par/thread_pool.hh"
#include "resil/fault.hh"
#include "resil/retry.hh"
#include "store/store.hh"
#include "synth/generator.hh"

namespace trb
{

const std::vector<NamedSet> &
figureOneSets()
{
    static const std::vector<NamedSet> sets = {
        {"mem-regs", kImpMemRegs},
        {"base-update", kImpBaseUpdate},
        {"mem-footprint", kImpMemFootprint},
        {"call-stack", kImpCallStack},
        {"branch-regs", kImpBranchRegs},
        {"flag-reg", kImpFlagReg},
        {"Memory", kMemoryImps},
        {"Branch", kBranchImps},
        {"All", kAllImps},
    };
    return sets;
}

std::size_t
suiteCount(const std::vector<TraceSpec> &suite)
{
    double scale = suiteScaleFromEnv();
    std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(scale * double(suite.size()) + 0.5));
    return std::min(count, suite.size());
}

namespace
{

/**
 * Produce one suite trace, routed through the fault injector: a flaky
 * affliction fails transiently before generation, and a corrupting
 * affliction round-trips the generated trace through its serialised
 * form, damages the bytes, and re-parses -- so synthetic sweeps
 * exercise exactly the validation a file-backed reader would.  Clean
 * traces (and all traces with TRB_FAULT unset) skip the round-trip.
 */
Expected<CvpTrace>
generateTraceWithFaults(const TraceSpec &spec)
{
    resil::FaultInjector &injector = resil::FaultInjector::global();
    if (injector.enabled() && injector.shouldFailTransiently(spec.name))
        return Status::ioError("injected transient failure producing trace")
            .at(spec.name);
    CvpTrace trace = [&] {
        obs::SpanScope span("generate");
        span.setItems(spec.length);
        TraceGenerator gen(spec.params);
        return gen.generate(spec.length);
    }();
    if (injector.enabled()) {
        resil::FaultPlan plan = injector.plan(spec.name);
        if (plan.corrupting()) {
            std::vector<std::uint8_t> bytes = serializeCvpTrace(trace);
            plan.corruptBuffer(bytes);
            return parseCvpTrace(bytes.data(), bytes.size(), spec.name);
        }
    }
    return trace;
}

} // namespace

void
forEachTrace(const std::vector<TraceSpec> &suite,
             const std::function<void(std::size_t, const TraceSpec &,
                                      const CvpTrace &)> &fn,
             resil::FailureReport *failures)
{
    if (!failures)
        failures = &resil::FailureReport::global();
    const std::size_t count = suiteCount(suite);
    par::ThreadPool &pool = par::ThreadPool::global();
    obs::SuiteProgress progress("suite", count);
    const resil::RetryPolicy policy = resil::RetryPolicy::fromEnv();
    const std::size_t preexisting = failures->size();
    pool.parallelFor(count, [&](std::size_t i) {
        // One span per trace on its worker's lane (generation, retries
        // and the caller's fn all inside it).
        obs::SpanScope trace_span("trace", suite[i].name);
        Expected<CvpTrace> trace =
            resil::withRetries(policy, suite[i].name, [&] {
                return generateTraceWithFaults(suite[i]);
            });
        if (!trace.ok()) {
            // Retryable errors were retried to exhaustion; anything
            // else failed on its single attempt.
            unsigned attempts =
                trace.status().retryable() ? policy.maxAttempts : 1;
            trb_warn("quarantining trace ", suite[i].name, ": ",
                     trace.status().toString());
            failures->add(
                {suite[i].name, i, attempts, trace.status()});
            progress.step(i, 0);
            return;
        }
        trace_span.setItems(trace.value().size());
        fn(i, suite[i], trace.value());
        progress.step(i, trace.value().size());
    });
    if (failures->size() > preexisting)
        trb_warn("suite completed with quarantines -- ",
                 failures->summary());
}

double
DeltaSeries::geomeanDeltaPercent() const
{
    // Quarantined traces leave NaN slots; aggregate over the rest.
    std::vector<double> finite;
    finite.reserve(ratio.size());
    for (double r : ratio)
        if (std::isfinite(r))
            finite.push_back(r);
    if (finite.empty())
        return 0.0;
    return 100.0 * (geomean(finite) - 1.0);
}

unsigned
DeltaSeries::countAbove(double percent) const
{
    unsigned n = 0;
    for (double r : ratio)
        if (std::isfinite(r) && std::fabs(r - 1.0) * 100.0 > percent)
            ++n;
    return n;
}

namespace
{

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

std::vector<DeltaSeries>
runImprovementSweep(const std::vector<TraceSpec> &suite,
                    const std::vector<NamedSet> &sets,
                    const CoreParams &params,
                    std::vector<SimStats> *baseline_out,
                    resil::FailureReport *failures)
{
    const std::size_t count = suiteCount(suite);
    std::vector<DeltaSeries> series(sets.size());
    for (std::size_t k = 0; k < sets.size(); ++k) {
        series[k].setName = sets[k].name;
        series[k].ratio.assign(count,
                               std::numeric_limits<double>::quiet_NaN());
    }
    if (baseline_out)
        baseline_out->assign(count, SimStats{});

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    par::ThreadPool &pool = par::ThreadPool::global();
    const bool storing = store::Store::global() != nullptr;
    // Under TRB_LINT every cell converts, so lint sees every stream.
    const bool linting = lint::lintEnabledFromEnv();
    std::atomic<std::uint64_t> from_baseline{0};
    obs::SpanScope sweep_span("sweep");
    forEachTrace(
        suite,
        [&](std::size_t i, const TraceSpec &, const CvpTrace &cvp) {
            // One digest serves this trace's whole row of store
            // lookups (base + every improvement set).
            store::Digest cvp_digest;
            if (storing)
                cvp_digest = store::digestCvpTrace(cvp);
            const store::Digest *digest_ptr =
                storing ? &cvp_digest : nullptr;
            const SimStats base = simulate(cvp, {.imps = kImpNone,
                                                 .params = params,
                                                 .cvpDigest = digest_ptr})
                                      .stats;
            if (baseline_out)
                (*baseline_out)[i] = base;
            // Buffer this task's gauges and flush them in one batch at
            // task end, so workers contend on the registry once per
            // trace rather than once per metric (micro_components
            // benchmarks the alternatives).
            obs::ThreadMetricsBuffer metrics(reg);
            const std::string trace_tag = "trace" + std::to_string(i);
            metrics.set("sweep.baseline." + trace_tag + ".ipc",
                        base.ipc());
            // A set whose every fix is inert for this trace converts to
            // the No_imp records, so its cell is the baseline's: no
            // conversion, no simulation, no store lookup.
            const ImprovementSet inert =
                linting ? kImpNone : inertImprovements(cvp);
            // One task per (trace x improvement set): the inner loop
            // rides the same work-stealing pool, so idle workers pick
            // up sets of the trace another worker generated.
            pool.parallelFor(sets.size(), [&](std::size_t k) {
                if (!linting && (sets[k].set & ~inert) == kImpNone) {
                    series[k].ratio[i] = base.ipc() / base.ipc();
                    from_baseline.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                obs::SpanScope set_span("set", sets[k].name);
                set_span.setItems(cvp.size());
                SimStats s = simulate(cvp, {.imps = sets[k].set,
                                            .params = params,
                                            .cvpDigest = digest_ptr})
                                 .stats;
                series[k].ratio[i] = s.ipc() / base.ipc();
            });
            for (std::size_t k = 0; k < sets.size(); ++k)
                metrics.set("sweep." + series[k].setName + "." +
                                trace_tag + ".ipc_ratio",
                            series[k].ratio[i]);
        },
        failures);
    // Post-join, single-threaded: the summary gauges land in the
    // registry in series order whatever the task schedule was.
    reg.addCounter("sweep.cells_from_baseline", from_baseline.load());
    std::vector<std::uint64_t> ratio_bits;
    for (const DeltaSeries &s : series) {
        reg.setGauge("sweep." + s.setName + ".geomean_delta_percent",
                     s.geomeanDeltaPercent());
        for (double r : s.ratio)
            ratio_bits.push_back(doubleBits(r));
    }
    // Bit-exact provenance of the whole result matrix: two runs that
    // computed the same ratios -- whatever the TRB_JOBS schedule --
    // publish the same digest, so a perf diff can also prove the
    // candidate still computes the baseline's numbers.
    reg.setCounter("sweep.ratios_digest",
                   store::digestBytes(ratio_bits.data(),
                                      ratio_bits.size() *
                                          sizeof(std::uint64_t))
                       .lo);
    return series;
}

double
writebackLoadFraction(const CvpTrace &trace)
{
    std::uint64_t wb_loads = 0;
    for (const CvpRecord &rec : trace)
        if (rec.cls == InstClass::Load &&
            Cvp2ChampSim::inferBaseUpdate(rec).kind != BaseUpdateKind::None)
            ++wb_loads;
    return trace.empty() ? 0.0
                         : static_cast<double>(wb_loads) /
                               static_cast<double>(trace.size());
}

} // namespace trb
