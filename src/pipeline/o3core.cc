#include "pipeline/o3core.hh"

#include <algorithm>

#include "common/aligned.hh"
#include "common/logging.hh"

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

} // namespace

O3Core::O3Core(const CoreParams &params, InstrPrefetcher *ipref)
    : params_(params), mem_(params.mem), port_(mem_),
      dir_(makeDirPred(params.dirPred)), ittage_(),
      btb_(params.btbEntries, params.btbWays), ras_(params.rasEntries),
      ipref_(ipref)
{
}

SimStats
O3Core::snapshot() const
{
    SimStats s = raw_;
    static_cast<HierarchyCounters &>(s) = mem_.counters();
    return s;
}

O3Core::BranchOutcome
O3Core::predictBranch(const ChampSimRecord &rec, BranchType type,
                      bool taken, Addr actual_target)
{
    BranchOutcome out;
    const Addr ip = rec.ip;
    BtbEntryView view = btb_.lookup(ip);

    auto needBtbTarget = [&]() {
        // A taken branch whose target must come from the BTB: a miss or
        // a stale target is a misfetch, resolvable at decode for direct
        // branches (the target is in the instruction bytes).
        if (!params_.idealTargets &&
            !(view.hit && view.target == actual_target)) {
            out.targetMisp = true;
            out.decodeResolvable = true;
        }
    };

    switch (type) {
      case BranchType::Conditional: {
        bool pred_taken = dir_->predict(ip);
        out.directionMisp = pred_taken != taken;
        dir_->update(ip, taken);
        ittage_.pushHistoryBit(taken);
        if (taken && !out.directionMisp)
            needBtbTarget();
        break;
      }
      case BranchType::DirectJump:
        needBtbTarget();
        break;
      case BranchType::DirectCall:
        needBtbTarget();
        ras_.push(ip + 4);
        break;
      case BranchType::IndirectJump:
      case BranchType::IndirectCall: {
        Addr pred = ittage_.predict(ip);
        if (!params_.idealTargets && pred != actual_target)
            out.targetMisp = true;
        ittage_.update(ip, actual_target);
        if (type == BranchType::IndirectCall)
            ras_.push(ip + 4);
        break;
      }
      case BranchType::Return: {
        Addr pred = ras_.pop();
        if (!params_.idealTargets && pred != actual_target)
            out.targetMisp = true;
        break;
      }
      case BranchType::NotBranch:
        break;
    }

    if (taken)
        btb_.update(ip, actual_target, type);
    return out;
}

SimStats
O3Core::run(ChampSimView trace, std::uint64_t warmup)
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
        // cost; the relaxed load happens once per poll interval.
        if ((i & (kCancelPollInterval - 1)) == 0 && cancel_ &&
            cancel_->cancelled())
            throw resil::CancelledError(cancel_->reason());

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
            BranchType type = deduceBranchType(rec, params_.rules);
            br_type = type;
            bool taken = rec.branchTaken != 0;
            Addr actual_target =
                (taken && i + 1 < trace.size()) ? trace[i + 1].ip : 0;

            ++raw_.branches;
            if (taken)
                ++raw_.takenBranches;
            ++raw_.typeCount[static_cast<int>(type)];

            BranchOutcome out =
                predictBranch(rec, type, taken, actual_target);
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

        if (tracer_) {
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
            tracer_->record(ev);
        }

        ++raw_.instructions;
        raw_.cycles = last_retire;
    }

    return snapshot() - base;
}

} // namespace trb
