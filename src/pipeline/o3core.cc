#include "pipeline/o3core.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/aligned.hh"
#include "common/logging.hh"
#include "uarch/btb.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace trb
{

namespace
{

/** Issue-bandwidth bookkeeping over a sliding cycle window. */
class IssueRing
{
  public:
    explicit IssueRing(unsigned width) : width_(width) {}

    /** First cycle >= @p wanted with a free issue slot (and claim it). */
    Cycle
    claim(Cycle wanted)
    {
        for (;;) {
            // Branch-light on purpose: whether a cycle is fresh is
            // data-dependent, and a host mispredict costs more than the
            // select.
            Slot &s = slots_[wanted % kSize];
            const bool fresh = s.stamp != wanted;
            if (fresh | (s.count < width_)) {
                s.count = fresh ? 1 : s.count + 1;
                s.stamp = wanted;
                return wanted;
            }
            ++wanted;
        }
    }

  private:
    static constexpr std::size_t kSize = 8192;

    struct Slot
    {
        Cycle stamp = ~Cycle{0};
        std::uint32_t count = 0;
    };

    unsigned width_;
    alignas(kHostLineBytes) std::array<Slot, kSize> slots_{};
};

std::unique_ptr<DirectionPredictor>
makeDirPred(DirPredKind kind)
{
    switch (kind) {
      case DirPredKind::TageScL: return std::make_unique<TageScL>();
      case DirPredKind::Gshare: return std::make_unique<GsharePredictor>();
      case DirPredKind::Bimodal:
        return std::make_unique<BimodalPredictor>();
    }
    return std::make_unique<TageScL>();
}

/** Where a branch record sends fetch: its type, direction and target. */
struct BranchFacts
{
    BranchType type;
    bool taken;
    Addr target;
};

BranchFacts
branchFacts(ChampSimView trace, std::size_t i, DeductionRules rules)
{
    const ChampSimRecord &rec = trace[i];
    const bool taken = rec.branchTaken != 0;
    return {deduceBranchType(rec, rules), taken,
            (taken && i + 1 < trace.size()) ? trace[i + 1].ip : 0};
}

} // namespace

struct O3Core::TargetPredictors
{
    explicit TargetPredictors(const CoreParams &p)
        : btb(p.btbEntries, p.btbWays), ras(p.rasEntries)
    {}

    Ittage ittage;
    Btb btb;
    Ras ras;
};

/**
 * Branch answers from the predictors.  A source's answer() gives the
 * answer for one branch, or false to stop the run; finished() says
 * whether the run may return its statistics.
 */
class O3Core::Predict
{
  public:
    explicit Predict(O3Core &core) : core_(core) {}

    bool
    answer(Addr ip, BranchType type, bool taken, Addr target,
           BranchOutcome &out)
    {
        out = core_.predictBranch(ip, type, taken, target);
        return true;
    }

    bool finished() const { return true; }

  private:
    O3Core &core_;
};

/** Branch answers from the predictors, written to a tape. */
class O3Core::Record : public O3Core::Predict
{
  public:
    Record(O3Core &core, BranchTape &tape) : Predict(core), tape_(tape) {}

    bool
    answer(Addr ip, BranchType type, bool taken, Addr target,
           BranchOutcome &out)
    {
        Predict::answer(ip, type, taken, target, out);
        if (std::optional<BranchTape::Seen> seen =
                tape_.seen(ip, type, taken, target))
            tape_.entries.push_back({*seen, out});
        return true;
    }

  private:
    BranchTape &tape_;
};

/** Branch answers read back from a tape, as long as the stream fits. */
class O3Core::Replay
{
  public:
    explicit Replay(const BranchTape &tape)
        : tape_(tape), next_(tape.entries.data()),
          end_(next_ + tape.entries.size())
    {}

    /** False when this branch is not the tape's next one. */
    bool
    answer(Addr ip, BranchType type, bool taken, Addr target,
           BranchOutcome &out)
    {
        const std::optional<BranchTape::Seen> seen =
            tape_.seen(ip, type, taken, target);
        if (!seen) {
            out = {};   // reaches no predictor, so nothing misses
            return true;
        }
        if (next_ == end_ || !(next_->seen == *seen))
            return false;
        out = next_->answer;
        ++next_;
        return true;
    }

    /** Every entry was read. */
    bool finished() const { return next_ == end_; }

  private:
    const BranchTape &tape_;
    const BranchTape::Entry *next_;
    const BranchTape::Entry *end_;
};

/** Branch answers from the predictors, every instruction traced. */
class O3Core::Traced : public O3Core::Predict
{
  public:
    Traced(O3Core &core, obs::PipelineTracer &tracer)
        : Predict(core), tracer(tracer)
    {}

    obs::PipelineTracer &tracer;
};

O3Core::O3Core(const CoreParams &params, InstrPrefetcher *ipref)
    : params_(params), mem_(params.mem), port_(mem_), ipref_(ipref)
{
}

O3Core::~O3Core() = default;

void
O3Core::buildPredictors()
{
    if (dir_)
        return;
    dir_ = makeDirPred(params_.dirPred);
    if (!params_.idealTargets)
        targets_ = std::make_unique<TargetPredictors>(params_);
}

void
O3Core::pollCancel() const
{
    if (cancel_ && cancel_->cancelled())
        throw resil::CancelledError(cancel_->reason());
}

SimStats
O3Core::snapshot() const
{
    SimStats s = raw_;
    static_cast<HierarchyCounters &>(s) = mem_.counters();
    return s;
}

BranchOutcome
O3Core::predictBranch(Addr ip, BranchType type, bool taken,
                      Addr actual_target)
{
    BranchOutcome out;
    if (type == BranchType::Conditional) {
        bool pred_taken = dir_->predict(ip);
        out.directionMisp = pred_taken != taken;
        dir_->update(ip, taken);
    }
    // Ideal targets: every target is right, so nothing reads the BTB,
    // ITTAGE or the RAS, and none of them is built.
    if (params_.idealTargets)
        return out;

    TargetPredictors &tp = *targets_;
    BtbEntryView view = tp.btb.lookup(ip);

    auto needBtbTarget = [&]() {
        // A taken branch whose target must come from the BTB: a miss or
        // a stale target is a misfetch, resolvable at decode for direct
        // branches (the target is in the instruction bytes).
        if (!(view.hit && view.target == actual_target)) {
            out.targetMisp = true;
            out.decodeResolvable = true;
        }
    };

    switch (type) {
      case BranchType::Conditional:
        tp.ittage.pushHistoryBit(taken);
        if (taken && !out.directionMisp)
            needBtbTarget();
        break;
      case BranchType::DirectJump:
        needBtbTarget();
        break;
      case BranchType::DirectCall:
        needBtbTarget();
        tp.ras.push(ip + 4);
        break;
      case BranchType::IndirectJump:
      case BranchType::IndirectCall: {
        Addr pred = tp.ittage.predict(ip);
        if (pred != actual_target)
            out.targetMisp = true;
        tp.ittage.update(ip, actual_target);
        if (type == BranchType::IndirectCall)
            tp.ras.push(ip + 4);
        break;
      }
      case BranchType::Return: {
        Addr pred = tp.ras.pop();
        if (pred != actual_target)
            out.targetMisp = true;
        break;
      }
      case BranchType::NotBranch:
        break;
    }

    if (taken)
        tp.btb.update(ip, actual_target, type);
    return out;
}

SimStats
O3Core::run(ChampSimView trace, std::uint64_t warmup)
{
    buildPredictors();
    Predict branches(*this);
    return *runLoop(trace, warmup, branches);
}

SimStats
O3Core::runRecording(ChampSimView trace, std::uint64_t warmup,
                     BranchTape &tape)
{
    buildPredictors();
    tape.params = PredictorParams::of(params_);
    tape.entries.clear();
    Record branches(*this, tape);
    return *runLoop(trace, warmup, branches);
}

std::optional<SimStats>
O3Core::replay(ChampSimView trace, std::uint64_t warmup,
               const BranchTape &tape)
{
    if (!(tape.params == PredictorParams::of(params_)))
        return std::nullopt;
    if (ipref_) {
        // The prefetcher is the caller's and keeps what it is fed, so
        // it is fed only a replay that will finish.
        Replay probe(tape);
        BranchOutcome ignored;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (!trace[i].isBranch)
                continue;
            const BranchFacts b = branchFacts(trace, i, params_.rules);
            if (!probe.answer(trace[i].ip, b.type, b.taken, b.target,
                              ignored))
                return std::nullopt;
        }
        if (!probe.finished())
            return std::nullopt;
    }
    Replay branches(tape);
    return runLoop(trace, warmup, branches);
}

SimStats
O3Core::runTraced(ChampSimView trace, std::uint64_t warmup,
                  obs::PipelineTracer &tracer)
{
    buildPredictors();
    Traced branches(*this, tracer);
    return *runLoop(trace, warmup, branches);
}

template <typename Branches>
std::optional<SimStats>
O3Core::runLoop(ChampSimView trace, std::uint64_t warmup,
                Branches &branches)
{
    const Cycle l1i_hit = params_.mem.l1i.latency;
    warmup = std::min<std::uint64_t>(warmup, trace.size());

    std::array<Cycle, 256> reg_ready{};
    AlignedVector<Cycle> rob_retire(params_.robSize, 0);
    std::size_t rob_idx = 0;    // i % robSize, kept without a division
    IssueRing issue_ring(params_.issueWidth);

    Cycle fetch_available = 0;
    Cycle last_fetch = 0;
    unsigned fetched_in_cycle = 0;
    Addr cur_line = ~Addr{0};
    Cycle cur_line_ready = 0;

    Cycle last_retire = 0;
    unsigned retired_in_cycle = 0;

    std::size_t la_ptr = 0;
    Addr last_la_line = ~Addr{0};

    SimStats base{};

    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == warmup && warmup > 0)
            base = snapshot();

        // Cooperative cancellation: the mask test is the only on-path
        // cost; the token is read once per poll interval, out of line.
        if ((i & (kCancelPollInterval - 1)) == 0)
            pollCancel();

        const ChampSimRecord &rec = trace[i];

        // ---- Fetch. ----
        Cycle f = std::max(fetch_available, last_fetch);
        if (f == last_fetch && fetched_in_cycle >= params_.fetchWidth)
            ++f;
        Addr line = lineAddr(rec.ip);
        if (line != cur_line) {
            AccessResult res =
                mem_.access(AccessKind::Instr, rec.ip, rec.ip, f);
            cur_line = line;
            cur_line_ready =
                f + (res.l1Miss ? res.latency - l1i_hit : 0);
            if (ipref_)
                ipref_->onFetch(rec.ip, !res.l1Miss, f, port_);
        }
        if (cur_line_ready > f)
            f = cur_line_ready;
        if (f != last_fetch)
            fetched_in_cycle = 0;
        last_fetch = f;
        ++fetched_in_cycle;

        // ---- Decoupled front-end: FTQ lookahead prefetch (FDIP). ----
        if (params_.decoupledFrontEnd) {
            std::size_t la_end =
                std::min(i + params_.ftqLookahead, trace.size());
            if (la_ptr <= i)
                la_ptr = i + 1;
            for (; la_ptr < la_end; ++la_ptr) {
                Addr la_line = lineAddr(trace[la_ptr].ip);
                if (la_line != last_la_line) {
                    mem_.prefetchInstr(la_line, f);
                    last_la_line = la_line;
                }
            }
        }

        // ---- Dispatch: front-end depth and ROB occupancy. ----
        Cycle dispatch = f + params_.frontendDepth;
        Cycle rob_slot_free = rob_retire[rob_idx];
        if (rob_slot_free > dispatch) {
            dispatch = rob_slot_free;
            ++raw_.robFullStalls;
        }

        // ---- Register readiness and issue. ----
        // Register 0 is "no register": its ready time is always 0, so
        // the loops need no test (the writes below reset it).
        Cycle ready = dispatch + 1;
        for (RegId r : rec.srcRegs)
            ready = std::max(ready, reg_ready[r]);
        Cycle issue = issue_ring.claim(ready);

        // ---- Execute. ----
        Cycle complete;
        if (rec.isLoad()) {
            Cycle lat = 0;
            for (Addr a : rec.srcMem) {
                if (a == 0)
                    continue;
                AccessResult res =
                    mem_.access(AccessKind::Load, a, rec.ip, issue + 1);
                lat = std::max(lat, res.latency);
            }
            complete = issue + 1 + lat;
        } else {
            complete = issue + 1;
        }

        for (RegId r : rec.destRegs)
            reg_ready[r] = complete;
        reg_ready[0] = 0;

        // ---- Branch resolution and redirects. ----
        BranchType br_type = BranchType::NotBranch;
        obs::SquashCause squash = obs::SquashCause::None;
        if (rec.isBranch) {
            const auto [type, taken, actual_target] =
                branchFacts(trace, i, params_.rules);
            br_type = type;

            ++raw_.branches;
            if (taken)
                ++raw_.takenBranches;
            ++raw_.typeCount[static_cast<int>(type)];

            BranchOutcome out;
            if (!branches.answer(rec.ip, type, taken, actual_target, out))
                return std::nullopt;
            if (out.directionMisp)
                ++raw_.directionMispredicts;
            if (out.targetMisp) {
                ++raw_.targetMispredicts;
                ++raw_.typeTargetMispredicts[static_cast<int>(type)];
            }
            if (out.directionMisp || out.targetMisp) {
                squash = out.directionMisp
                             ? obs::SquashCause::DirectionMispredict
                             : obs::SquashCause::TargetMispredict;
                ++raw_.branchMispredicts;
                ++raw_.typeMispredicts[static_cast<int>(type)];
                Cycle redirect =
                    (out.targetMisp && out.decodeResolvable &&
                     !out.directionMisp)
                        ? f + params_.decodeRedirectPenalty
                        : complete + params_.mispredictPenalty;
                fetch_available = std::max(fetch_available, redirect);
            }
            if (taken)
                fetch_available = std::max(fetch_available, f + 1);
            if (ipref_)
                ipref_->onBranch(rec.ip, type, actual_target, taken, f,
                                 port_);
        }

        // ---- Retire (in order, retire-width per cycle). ----
        Cycle retire = std::max(last_retire, complete + 1);
        if (retire == last_retire &&
            retired_in_cycle >= params_.retireWidth)
            ++retire;
        if (retire != last_retire)
            retired_in_cycle = 0;
        last_retire = retire;
        ++retired_in_cycle;
        rob_retire[rob_idx] = retire;
        if (++rob_idx == rob_retire.size())
            rob_idx = 0;

        // Stores write the hierarchy at retirement (latency off the
        // critical path, misses still counted).
        if (rec.isStore())
            for (Addr a : rec.destMem)
                if (a != 0)
                    mem_.access(AccessKind::Store, a, rec.ip, retire);

        if constexpr (std::is_same_v<Branches, Traced>) {
            obs::InstrEvent ev;
            ev.seq = i;
            ev.ip = rec.ip;
            ev.fetch = f;
            ev.dispatch = dispatch;
            ev.issue = issue;
            ev.complete = complete;
            ev.retire = retire;
            ev.branch = br_type;
            ev.squash = squash;
            ev.isLoad = rec.isLoad();
            ev.isStore = rec.isStore();
            branches.tracer.record(ev);
        }

        ++raw_.instructions;
        raw_.cycles = last_retire;
    }

    if (!branches.finished())
        return std::nullopt;
    return snapshot() - base;
}

} // namespace trb
