/**
 * @file
 * Simulator facade: the two configurations the paper evaluates on, and
 * the one-call entry point that runs a trace through conversion and the
 * core model.
 *
 *  - modernConfig(): the Section 4 setup -- decoupled front-end, 16K BTB,
 *    TAGE-SC-L + ITTAGE, ip-stride at L1D and next-line at L2, patched
 *    branch deduction rules.
 *  - ipc1Config(): the IPC-1 contest setup -- coupled front-end with an
 *    ideal branch-target predictor and a pluggable L1I prefetcher (the
 *    paper's Section 4.4 re-evaluation, which also carries the branch
 *    identification patch).
 *
 * Everything a run depends on travels in one SimRequest options struct,
 * designed for designated initializers:
 *
 *     SimResult r = simulate(cvp, {.imps = kImpAll,
 *                                  .params = modernConfig(),
 *                                  .warmupFraction = 0.5});
 *
 * When a store is active (TRB_STORE, or SimRequest::store), simulate()
 * memoizes the result and nothing else: the final SimStats, restored
 * from exact u64 bit patterns.  A hit skips conversion and the core
 * model; a miss converts, simulates and publishes the stats.  Hits are
 * bit-identical to misses by construction, so enabling the store never
 * changes a result -- only how fast it arrives -- and a sweep rerun
 * under the same store resumes from the cells it already published.
 *
 * Thread safety: simulate() is pure -- each call builds its own
 * converter and O3Core and touches no shared mutable state -- so the
 * experiment harness calls it concurrently from pool workers (see
 * docs/parallelism.md).  The CVP overload converts into a buffer of the
 * calling thread's own, which keeps its capacity between calls (up to
 * 64 MiB) so cold calls do not fault its pages in afresh; its pages are
 * mapped outside the malloc heap, so it does not change how the heap
 * trims the caller's own blocks.  The one caveat is the optional
 * @c ipref: the prefetcher instance is mutated during simulation, so
 * concurrent calls must each pass their own instance.  A *pre-trained*
 * prefetcher also breaks the "result is a function of the request"
 * premise stats caching rests on: pass `.useStore = false` for such
 * runs.
 */

#ifndef TRB_SIM_SIMULATOR_HH
#define TRB_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "convert/cvp2champsim.hh"
#include "ipref/instr_prefetcher.hh"
#include "pipeline/core_params.hh"
#include "pipeline/o3core.hh"
#include "pipeline/sim_stats.hh"
#include "resil/cancel.hh"
#include "store/store.hh"
#include "trace/cvp_trace.hh"

namespace trb
{

/**
 * The paper's main-branch ChampSim configuration (Section 4), which is
 * what CoreParams defaults to.
 */
CoreParams modernConfig();

/** The IPC-1 contest configuration (Section 4.4). */
CoreParams ipc1Config();

/**
 * Everything one simulation run depends on.  Field order is part of the
 * API: designated initializers must list fields in declaration order,
 * so new knobs are only ever appended.
 */
struct SimRequest
{
    /** Converter improvements applied during CVP conversion. */
    ImprovementSet imps = kImpNone;

    /** Core configuration (defaults equal modernConfig()). */
    CoreParams params{};

    /**
     * Leading fraction of the *converted* trace whose statistics are
     * discarded (the IPC-1 methodology warms up half).
     */
    double warmupFraction = 0.0;

    /**
     * Optional instruction prefetcher plugged into the L1I; mutated by
     * the run, so never share one instance across concurrent calls.
     */
    InstrPrefetcher *ipref = nullptr;

    /** Explicit store; nullptr means "use Store::global() if any". */
    store::Store *store = nullptr;

    /**
     * Master store gate.  Set false when the request carries state the
     * key cannot see (e.g. a pre-trained prefetcher instance).
     */
    bool useStore = true;

    /**
     * Precomputed content digest of the CVP trace (an optimisation for
     * sweeps that simulate one trace many times); nullptr means
     * simulate() digests the trace itself when a store is active.
     */
    const store::Digest *cvpDigest = nullptr;

    /**
     * Optional cooperative cancellation token, polled by the core
     * model's hot loop (see O3Core::setCancelToken).  A fired token
     * aborts the run by throwing resil::CancelledError; no partial
     * result is returned or memoized.  Deliberately absent from the
     * store key: cancellation changes whether a result arrives, never
     * what it is.
     */
    const resil::CancelToken *cancel = nullptr;
};

/** A simulation result plus where it came from. */
struct SimResult
{
    SimStats stats;

    /** The SimStats were served from the artifact store. */
    bool statsFromStore = false;
};

/**
 * One full experiment step: convert @p cvp under the request's
 * improvements and simulate.
 *
 * Deterministic: the result depends only on (cvp, req), never on
 * scheduling or store temperature -- the property both the parallel
 * harness's and the store's bit-identical-output contracts rest on.
 */
SimResult simulate(const CvpTrace &cvp, const SimRequest &req = {});

/**
 * Simulate an already-converted ChampSim trace.  The conversion-related
 * request fields (imps, cvpDigest) are ignored; stats memoization keys
 * on the record bytes themselves.
 */
SimResult simulate(ChampSimView trace, const SimRequest &req = {});

/**
 * Canonical spelling of every CoreParams field, nested cache and memory
 * parameters included.  Exhaustive on purpose: a field missing here
 * would alias two different configurations onto one store artifact, and
 * a warm store would keep serving the wrong one.  Size static_asserts
 * beside the definition fail the build when an added field grows the
 * structs, and StoreKey.CoreParamsKeyCoversEveryField changes each
 * field in turn.
 */
std::string coreParamsKey(const CoreParams &params);

} // namespace trb

#endif // TRB_SIM_SIMULATOR_HH
