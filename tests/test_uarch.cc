/**
 * @file
 * Tests for the microarchitectural substrate: direction predictors learn
 * the patterns they are built for, ITTAGE resolves history-correlated
 * indirect targets, and the BTB/RAS obey their structural contracts.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/rng.hh"
#include "uarch/btb.hh"
#include "uarch/direction_pred.hh"
#include "uarch/ittage.hh"
#include "uarch/tage.hh"

namespace trb
{
namespace
{

/** Run a predictor on an outcome generator; return accuracy. */
double
accuracy(DirectionPredictor &pred, Addr pc,
         const std::function<bool(int)> &outcome, int warmup, int measure)
{
    int correct = 0;
    for (int i = 0; i < warmup + measure; ++i) {
        bool taken = outcome(i);
        bool p = pred.predict(pc);
        if (i >= warmup && p == taken)
            ++correct;
        pred.update(pc, taken);
    }
    return static_cast<double>(correct) / measure;
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor pred;
    double acc = accuracy(pred, 0x1000, [](int) { return true; }, 10, 1000);
    EXPECT_GT(acc, 0.99);
    BimodalPredictor pred2;
    acc = accuracy(pred2, 0x1000, [](int i) { return i % 10 != 0; }, 100,
                   1000);
    EXPECT_GT(acc, 0.85);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor pred;
    double acc =
        accuracy(pred, 0x1000, [](int i) { return i % 2 == 0; }, 100, 1000);
    EXPECT_LT(acc, 0.7);
}

TEST(Gshare, LearnsAlternation)
{
    GsharePredictor pred;
    double acc =
        accuracy(pred, 0x1000, [](int i) { return i % 2 == 0; }, 200, 1000);
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsShortPeriod)
{
    GsharePredictor pred;
    double acc =
        accuracy(pred, 0x1000, [](int i) { return i % 5 != 0; }, 500, 1000);
    EXPECT_GT(acc, 0.95);
}

class TagePatterns : public ::testing::TestWithParam<int>
{};

TEST_P(TagePatterns, LearnsPeriodicPattern)
{
    int period = GetParam();
    TageScL pred;
    double acc = accuracy(
        pred, 0x4000, [period](int i) { return i % period != 0; }, 3000,
        3000);
    EXPECT_GT(acc, 0.95) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Periods, TagePatterns,
                         ::testing::Values(2, 3, 7, 16, 40));

TEST(Tage, NearPerfectOnBias)
{
    TageScL pred;
    double acc =
        accuracy(pred, 0x4000, [](int) { return false; }, 100, 2000);
    EXPECT_GT(acc, 0.99);
}

TEST(Tage, RandomIsHard)
{
    TageScL pred;
    Rng rng(5);
    double acc = accuracy(
        pred, 0x4000, [&rng](int) { return rng.chance(0.5); }, 2000, 4000);
    EXPECT_GT(acc, 0.40);
    EXPECT_LT(acc, 0.62);
}

TEST(Tage, ManyBranchesIndependently)
{
    // Interleave 64 branches with distinct biases; TAGE keeps them apart.
    TageScL pred;
    int correct = 0, total = 0;
    for (int round = 0; round < 400; ++round) {
        for (int b = 0; b < 64; ++b) {
            Addr pc = 0x10000 + 4u * static_cast<Addr>(b);
            bool taken = (b % 3) != 0;
            bool p = pred.predict(pc);
            if (round > 100) {
                ++total;
                correct += p == taken;
            }
            pred.update(pc, taken);
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.97);
}

TEST(Tage, HistoryCorrelation)
{
    // Branch B's outcome equals branch A's previous outcome: only a
    // history-based predictor gets this right.
    TageScL pred;
    Rng rng(7);
    bool last_a = false;
    int correct = 0, total = 0;
    for (int i = 0; i < 6000; ++i) {
        bool a = rng.chance(0.5);
        (void)pred.predict(0x1000);
        pred.update(0x1000, a);

        bool b = last_a;
        bool p = pred.predict(0x2000);
        if (i > 2000) {
            ++total;
            correct += p == b;
        }
        pred.update(0x2000, b);
        last_a = a;
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(Ittage, MonomorphicTarget)
{
    Ittage pred;
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        Addr p = pred.predict(0x5000);
        if (i > 10)
            correct += p == 0x9000;
        pred.update(0x5000, 0x9000);
    }
    EXPECT_GT(correct, 180);
}

TEST(Ittage, HistoryCorrelatedPolymorphic)
{
    // The indirect target alternates deterministically: history-indexed
    // tagged tables must catch it.
    Ittage pred;
    int correct = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr target = (i % 2) ? 0x9000 : 0xa000;
        Addr p = pred.predict(0x5000);
        if (i > 2000) {
            ++total;
            correct += p == target;
        }
        pred.update(0x5000, target);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(Ittage, ConditionalHistoryDisambiguates)
{
    // A conditional's direction (pushed into the history) decides the
    // upcoming indirect target -- the ITTAGE killer feature.
    Ittage pred;
    Rng rng(11);
    int correct = 0, total = 0;
    for (int i = 0; i < 6000; ++i) {
        bool cond = rng.chance(0.5);
        pred.pushHistoryBit(cond);
        Addr target = cond ? 0x9000 : 0xa000;
        Addr p = pred.predict(0x5000);
        if (i > 3000) {
            ++total;
            correct += p == target;
        }
        pred.update(0x5000, target);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

TEST(Btb, HitAfterUpdate)
{
    Btb btb(1024, 4);
    EXPECT_FALSE(btb.lookup(0x1000).hit);
    btb.update(0x1000, 0x2000, BranchType::DirectJump);
    auto view = btb.lookup(0x1000);
    EXPECT_TRUE(view.hit);
    EXPECT_EQ(view.target, 0x2000u);
    EXPECT_EQ(view.type, BranchType::DirectJump);
}

TEST(Btb, UpdateRefreshesExisting)
{
    Btb btb(1024, 4);
    btb.update(0x1000, 0x2000, BranchType::DirectJump);
    btb.update(0x1000, 0x3000, BranchType::IndirectJump);
    auto view = btb.lookup(0x1000);
    EXPECT_EQ(view.target, 0x3000u);
    EXPECT_EQ(view.type, BranchType::IndirectJump);
}

TEST(Btb, LruEvictionWithinSet)
{
    Btb btb(64, 4);   // 16 sets
    // Five PCs mapping to the same set: stride = sets * 4.
    Addr stride = 16 * 4;
    for (int i = 0; i < 5; ++i)
        btb.update(0x1000 + i * stride, 0x9000 + i, BranchType::DirectJump);
    // The first (least recent) mapping is gone, later ones survive.
    EXPECT_FALSE(btb.lookup(0x1000).hit);
    int present = 0;
    for (int i = 1; i < 5; ++i)
        present += btb.lookup(0x1000 + i * stride).hit;
    EXPECT_EQ(present, 4);
}

TEST(Btb, LookupRefreshesRecency)
{
    Btb btb(64, 4);   // 16 sets
    Addr stride = 16 * 4;
    for (int i = 0; i < 4; ++i)
        btb.update(0x1000 + i * stride, 0x9000 + i, BranchType::DirectJump);
    // A hit makes the oldest mapping the newest: the next one goes.
    EXPECT_TRUE(btb.lookup(0x1000).hit);
    btb.update(0x1000 + 4 * stride, 0x9004, BranchType::DirectJump);
    EXPECT_TRUE(btb.lookup(0x1000).hit);
    EXPECT_FALSE(btb.lookup(0x1000 + stride).hit);
    EXPECT_EQ(btb.hits(), 2u);
    EXPECT_EQ(btb.lookups(), 3u);
}

TEST(Btb, CapacityHoldsWorkingSet)
{
    Btb btb(16384, 8);
    for (Addr pc = 0; pc < 8000 * 4; pc += 4)
        btb.update(0x100000 + pc, pc, BranchType::Conditional);
    int hits = 0;
    for (Addr pc = 0; pc < 8000 * 4; pc += 4)
        hits += btb.lookup(0x100000 + pc).hit;
    EXPECT_EQ(hits, 8000);
}

TEST(Ras, LifoOrder)
{
    Ras ras(8);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.depth(), 3u);
    EXPECT_EQ(ras.top(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.depth(), 0u);
}

TEST(Ras, EmptyPopReturnsZero)
{
    Ras ras(4);
    EXPECT_EQ(ras.pop(), 0u);
    EXPECT_EQ(ras.top(), 0u);
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    Ras ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    // Capacity 4: the newest four survive, oldest two are overwritten.
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
    EXPECT_EQ(ras.pop(), 0u);
}

TEST(Ras, DeepCallChains)
{
    Ras ras(64);
    for (int rep = 0; rep < 100; ++rep) {
        for (Addr d = 0; d < 40; ++d)
            ras.push(0x1000 + d);
        for (Addr d = 40; d-- > 0;)
            ASSERT_EQ(ras.pop(), 0x1000 + d);
    }
}

} // namespace
} // namespace trb
