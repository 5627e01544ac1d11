#include "experiments/figures.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/stats.hh"
#include "experiments/experiment.hh"
#include "ipref/instr_prefetcher.hh"
#include "store/store.hh"
#include "synth/suites.hh"

namespace trb
{

namespace
{

/** The rows @p fn makes from @p suite's traces, in suite order, with
 *  quarantined traces dropped; @p fn gets each trace and a sim(imps)
 *  under @p params that digests it for the store once. */
template <typename Row, typename Fn>
std::vector<Row>
traceRows(const std::vector<TraceSpec> &suite, const CoreParams &params,
          Fn fn)
{
    // Index-addressed slots: forEachTrace runs fn concurrently.
    std::vector<std::optional<Row>> slots(suiteCount(suite));
    const bool storing = store::Store::global() != nullptr;
    forEachTrace(suite, [&](std::size_t i, const TraceSpec &spec,
                            const CvpTrace &cvp) {
        std::optional<store::Digest> digest;
        auto sim = [&](ImprovementSet imps) {
            if (storing && !digest)
                digest = store::digestCvpTrace(cvp);
            return simulate(cvp, {.imps = imps,
                                  .params = params,
                                  .cvpDigest = digest ? &*digest : nullptr})
                .stats;
        };
        slots[i] = fn(spec, cvp, sim);
    });
    std::vector<Row> rows;
    for (std::optional<Row> &slot : slots)
        if (slot)
            rows.push_back(std::move(*slot));
    return rows;
}

template <typename Row>
QuartileMeans
quartileMeans(const std::vector<Row> &rows, double Row::*column)
{
    const std::size_t q = rows.size() / 4;
    double lowest = 0.0, highest = 0.0;
    for (std::size_t i = 0; i < q; ++i) {
        lowest += rows[i].*column;
        highest += rows[rows.size() - q + i].*column;
    }
    return {lowest / static_cast<double>(q), highest / static_cast<double>(q)};
}

} // namespace

FigureThree
figureThree(std::uint64_t length)
{
    using Row = FigureThree::Row;
    std::vector<Row> rows = traceRows<Row>(
        cvp1PublicSuite(length), modernConfig(),
        [](const TraceSpec &spec, const CvpTrace &, auto &sim) {
            const SimStats base = sim(kImpNone);
            const SimStats br = sim(kImpBranchRegs);
            const SimStats fr = sim(kImpFlagReg);
            return Row{spec.name, base.branchMpki(),
                       100.0 * (base.ipc() / br.ipc() - 1.0),
                       100.0 * (base.ipc() / fr.ipc() - 1.0)};
        });
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.branchMpki < b.branchMpki;
    });
    return {rows, quartileMeans(rows, &Row::flagRegSlowdown)};
}

FigureFour
figureFour(std::uint64_t length)
{
    using Row = FigureFour::Row;
    std::vector<Row> rows = traceRows<Row>(
        cvp1PublicSuite(length), modernConfig(),
        [](const TraceSpec &spec, const CvpTrace &cvp, auto &sim) {
            const SimStats base = sim(kImpNone);
            const SimStats bu = sim(kImpBaseUpdate);
            return Row{spec.name, 100.0 * writebackLoadFraction(cvp),
                       100.0 * (bu.ipc() / base.ipc() - 1.0)};
        });
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.wbLoadPct < b.wbLoadPct;
    });
    return {rows, quartileMeans(rows, &Row::speedup)};
}

FigureFive
figureFive(std::uint64_t length)
{
    using Row = FigureFive::Row;
    std::vector<Row> rows = traceRows<Row>(
        cvp1PublicSuite(length), modernConfig(),
        [](const TraceSpec &spec, const CvpTrace &, auto &sim) {
            const SimStats base = sim(kImpNone);
            const SimStats fixed = sim(kImpCallStack);
            return Row{spec.name, base.returnMpki(), fixed.returnMpki(),
                       100.0 * (fixed.ipc() / base.ipc() - 1.0)};
        });
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.rasMpkiOrig > b.rasMpkiOrig;
    });
    return {std::move(rows)};
}

Ipc1Row
ipc1Row(const CvpTrace &cvp)
{
    const ImprovementSet sets[2] = {kImpNone, kIpc1Imps};
    Ipc1Row row;
    for (int v = 0; v < 2; ++v) {
        const ChampSimTrace trace = Cvp2ChampSim(sets[v]).convert(cvp);
        SimRequest req{.params = ipc1Config(), .warmupFraction = 0.5};
        row.base[v] = simulate(ChampSimView(trace), req).stats;
        for (const std::string &name : ipc1PrefetcherNames()) {
            auto pf = makeInstrPrefetcher(name);
            req.ipref = pf.get();
            row.speedup[v].push_back(
                simulate(ChampSimView(trace), req).stats.ipc() /
                row.base[v].ipc());
        }
    }
    return row;
}

TableThree
rankPrefetchers(const std::vector<Ipc1Row> &rows)
{
    const std::vector<std::string> &names = ipc1PrefetcherNames();
    TableThree table{rows.size(), {}};
    for (int v = 0; v < 2; ++v) {
        std::vector<std::pair<double, std::string>> ranking;
        for (std::size_t p = 0; p < names.size(); ++p) {
            std::vector<double> ratios;
            for (const Ipc1Row &row : rows)
                ratios.push_back(row.speedup[v][p]);
            ranking.emplace_back(geomean(finiteValues(ratios)), names[p]);
        }
        std::sort(ranking.rbegin(), ranking.rend());
        for (auto &[speedup, name] : ranking)
            table.ranking[v].push_back({std::move(name), speedup});
    }
    return table;
}

TableThree
tableThree(std::uint64_t length)
{
    return rankPrefetchers(traceRows<Ipc1Row>(
        ipc1Suite(length), ipc1Config(),
        [](const TraceSpec &, const CvpTrace &cvp, auto &) {
            return ipc1Row(cvp);
        }));
}

} // namespace trb
