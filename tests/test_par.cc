/**
 * @file
 * trb::par thread pool: shutdown, exception propagation, exactly-once
 * index coverage under contention, nested loops, and the determinism
 * contract of the parallel experiment harness (parallel sweep output is
 * bit-identical to the inline serial path that TRB_JOBS=1 runs).  The
 * MetricsConcurrency suite hammers the three trb::obs write strategies
 * from pool workers and is the intended target of the ThreadSanitizer
 * CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/experiment.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "synth/generator.hh"
#include "synth/suites.hh"

namespace trb
{
namespace
{

TEST(ThreadPool, JobsFromEnvParsesTrbJobs)
{
    setenv("TRB_JOBS", "3", 1);
    EXPECT_EQ(par::jobsFromEnv(), 3u);
    setenv("TRB_JOBS", "0", 1);
    EXPECT_GE(par::jobsFromEnv(), 1u);   // 0 means hardware_concurrency
    unsetenv("TRB_JOBS");
    EXPECT_GE(par::jobsFromEnv(), 1u);
}

TEST(ThreadPool, ConstructDestroyIdle)
{
    // Shutdown must not hang or leak even when no work was submitted.
    for (int round = 0; round < 4; ++round)
        for (std::size_t jobs : {1u, 2u, 5u, 8u}) {
            par::ThreadPool pool(jobs);
            EXPECT_EQ(pool.jobs(), jobs);
        }
}

TEST(ThreadPool, ShutdownAfterWork)
{
    std::atomic<std::size_t> ran{0};
    {
        par::ThreadPool pool(4);
        pool.parallelFor(64, [&](std::size_t) { ++ran; });
    }   // destructor joins here
    EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnceUnderContention)
{
    par::ThreadPool pool(8);
    constexpr std::size_t n = 20000;
    std::vector<std::atomic<unsigned>> counts(n);
    pool.parallelFor(n, [&](std::size_t i) {
        // Uneven task cost so fast workers drain their own deque and
        // have to steal from slow ones.
        volatile unsigned spin = static_cast<unsigned>(i % 97);
        while (spin > 0)
            spin = spin - 1;
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, SerialPoolRunsInlineInOrder)
{
    par::ThreadPool pool(1);
    std::vector<std::size_t> order;   // no lock needed: single thread
    const auto caller = std::this_thread::get_id();
    pool.parallelFor(100, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedLoopsShareTheDeques)
{
    par::ThreadPool pool(6);
    std::atomic<std::size_t> ran{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives)
{
    par::ThreadPool pool(4);
    std::atomic<std::size_t> ran{0};
    auto boom = [&](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 10 == 3)
            throw std::runtime_error("index " + std::to_string(i));
    };
    EXPECT_THROW(pool.parallelFor(100, boom), std::runtime_error);
    // Every index was still attempted exactly once...
    EXPECT_EQ(ran.load(), 100u);
    // ...and the pool is reusable afterwards.
    std::atomic<std::size_t> again{0};
    pool.parallelFor(50, [&](std::size_t) { ++again; });
    EXPECT_EQ(again.load(), 50u);
}

TEST(ThreadPool, ParallelMapKeepsInputOrder)
{
    par::ThreadPool pool(8);
    std::vector<int> in(500);
    std::iota(in.begin(), in.end(), 0);
    auto out = pool.parallelMap(in, [](int v) { return v * v; });
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, SuiteGenerationIsReentrant)
{
    // Suite builders are called from inside pool tasks by the harness;
    // concurrent calls must agree with a serial call.
    auto reference = cvp1PublicSuite(1000);
    par::ThreadPool pool(8);
    pool.parallelFor(16, [&](std::size_t) {
        auto suite = cvp1PublicSuite(1000);
        ASSERT_EQ(suite.size(), reference.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            EXPECT_EQ(suite[i].name, reference[i].name);
            EXPECT_EQ(suite[i].length, reference[i].length);
        }
    });
}

/**
 * The Figure 1/2 sweep must be bit-identical for every TRB_JOBS value.
 * TRB_JOBS=1 runs the loop bodies inline in index order -- exactly the
 * hand-written serial reference below -- so comparing the parallel
 * sweep (TRB_JOBS=8) against it in one process is the 1-vs-8
 * comparison.
 */
TEST(Determinism, SweepBitIdenticalToSerialReference)
{
    // Sized before the global pool's first use in this process; under
    // ctest each gtest case is its own process, so this reliably runs
    // the sweep on eight workers.
    setenv("TRB_JOBS", "8", 1);

    auto full = cvp1PublicSuite(2500);
    std::vector<TraceSpec> suite(full.begin(), full.begin() + 12);
    const auto &sets = figureOneSets();
    CoreParams params = modernConfig();

    std::vector<SimStats> baseline;
    auto series = runImprovementSweep(suite, sets, params, &baseline);
    ASSERT_EQ(series.size(), sets.size());
    ASSERT_EQ(baseline.size(), suite.size());

    for (std::size_t i = 0; i < suite.size(); ++i) {
        CvpTrace cvp =
            TraceGenerator(suite[i].params).generate(suite[i].length);
        SimStats base = simulate(cvp, {.imps = kImpNone,
                                       .params = params}).stats;
        // Bitwise equality, not EXPECT_NEAR: the parallel run must
        // reproduce the serial doubles exactly.
        EXPECT_EQ(baseline[i].cycles, base.cycles);
        EXPECT_EQ(baseline[i].ipc(), base.ipc());
        for (std::size_t k = 0; k < sets.size(); ++k) {
            SimStats s = simulate(cvp, {.imps = sets[k].set,
                                        .params = params}).stats;
            ASSERT_EQ(series[k].ratio.size(), suite.size());
            EXPECT_EQ(series[k].ratio[i], s.ipc() / base.ipc())
                << sets[k].name << " trace " << i;
        }
    }
    unsetenv("TRB_JOBS");
}

// --- Concurrent metrics updates (ThreadSanitizer targets). ---

TEST(MetricsConcurrency, LockedRegistryCountsEveryAdd)
{
    obs::MetricsRegistry reg;
    par::ThreadPool pool(8);
    pool.parallelFor(4000, [&](std::size_t i) {
        reg.addCounter("shared.hits");
        reg.addCounter("lane." + std::to_string(i % 4) + ".hits");
        reg.setGauge("last.index", static_cast<double>(i));
    });
    EXPECT_EQ(reg.counterValue("shared.hits"), 4000u);
    std::uint64_t lanes = 0;
    for (int l = 0; l < 4; ++l)
        lanes += reg.counterValue("lane." + std::to_string(l) + ".hits");
    EXPECT_EQ(lanes, 4000u);
}

TEST(MetricsConcurrency, SnapshotIsConsistentDuringWrites)
{
    obs::MetricsRegistry reg;
    reg.addCounter("probe", 0);
    par::ThreadPool pool(8);
    pool.parallelFor(2000, [&](std::size_t i) {
        if (i % 4 == 0) {
            auto snap = reg.snapshot();   // must not tear or race
            ASSERT_GE(snap.counters.size(), 1u);
        } else {
            reg.addCounter("probe");
        }
    });
    EXPECT_EQ(reg.counterValue("probe"), 1500u);
}

TEST(MetricsConcurrency, ThreadBuffersFoldLocallyAndFlushOnce)
{
    obs::MetricsRegistry reg;
    par::ThreadPool pool(8);
    pool.parallelFor(64, [&](std::size_t i) {
        obs::ThreadMetricsBuffer buffer(reg);
        for (int k = 0; k < 100; ++k)
            buffer.add("buffered.hits");
        buffer.set("task." + std::to_string(i) + ".done", 1.0);
        // Destructor flushes the folded batch in one locked pass.
    });
    EXPECT_EQ(reg.counterValue("buffered.hits"), 6400u);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(reg.gaugeValue("task." + std::to_string(i) + ".done"),
                  1.0);
}

} // namespace
} // namespace trb
