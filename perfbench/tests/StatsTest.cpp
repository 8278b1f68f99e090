//===- perfbench/tests/StatsTest.cpp - Tail selection, failure counting ---===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace perfbench;

namespace {

/// 1..N in a seeded shuffle, so selection cannot rely on input order.
std::vector<double> shuffledRange(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  std::shuffle(V.begin(), V.end(), std::mt19937(42));
  return V;
}

TEST(TailTest, TenSamplesHaveNoTail) {
  Tail T = tailOf(shuffledRange(10));
  EXPECT_FALSE(T.Valid);
  EXPECT_EQ(T.Count, 10u);
}

TEST(TailTest, ElevenSamplesLeaveTenAboveTheLowest) {
  Tail T = tailOf(shuffledRange(11));
  ASSERT_TRUE(T.Valid);
  EXPECT_EQ(T.Value, 1.0);
  EXPECT_EQ(T.Count, 11u);
  EXPECT_NEAR(T.Percentile, 100.0 / 11.0, 1e-9);
}

TEST(TailTest, HundredSamplesGiveP90) {
  Tail T = tailOf(shuffledRange(100));
  ASSERT_TRUE(T.Valid);
  EXPECT_EQ(T.Value, 90.0);
  EXPECT_EQ(T.Percentile, 90.0);
  EXPECT_EQ(T.Count, 100u);
}

TEST(TailTest, CappedAtP99) {
  Tail T = tailOf(shuffledRange(5000));
  ASSERT_TRUE(T.Valid);
  EXPECT_EQ(T.Value, 4950.0);
  EXPECT_EQ(T.Percentile, 99.0);
  EXPECT_EQ(T.Count, 5000u);
}

TEST(TailTest, AlwaysTenSamplesBeyondAndNeverAboveTheCap) {
  for (size_t N : {11u, 12u, 37u, 250u, 999u, 1000u, 1001u, 4321u}) {
    std::vector<double> V = shuffledRange(N);
    Tail T = tailOf(V);
    ASSERT_TRUE(T.Valid) << N;
    EXPECT_EQ(T.Count, N);
    size_t Beyond = std::count_if(V.begin(), V.end(),
                                  [&](double X) { return X > T.Value; });
    EXPECT_GE(Beyond, TailSamplesBeyond) << N;
    EXPECT_LE(T.Percentile, static_cast<double>(TailPercentileCap)) << N;
    // The highest such percentile: one rank higher would leave too few
    // samples beyond it, or the tail already sits at the cap.
    EXPECT_TRUE(Beyond == TailSamplesBeyond ||
                T.Percentile == static_cast<double>(TailPercentileCap))
        << N;
  }
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(UpperQuartileTest, NearestRank) {
  EXPECT_EQ(upperQuartile(shuffledRange(4)), 3.0);
  EXPECT_EQ(upperQuartile(shuffledRange(5)), 4.0);
  EXPECT_EQ(upperQuartile(shuffledRange(7)), 6.0);
  EXPECT_EQ(upperQuartile({9}), 9.0);
  EXPECT_EQ(upperQuartile({}), 0.0);
}

TEST(OpLedgerTest, CountsFailuresAgainstAttempts) {
  OpLedger L;
  L.record(true, "first");
  L.record(false, "second");
  L.record(true, "third");
  EXPECT_EQ(L.attempted(), 3u);
  EXPECT_EQ(L.failed(), 1u);
  EXPECT_FALSE(L.correct());
}

TEST(OpLedgerTest, CorrectOnlyWhenSomethingRanAndNothingFailed) {
  OpLedger L;
  EXPECT_FALSE(L.correct());
  L.record(true, "only");
  EXPECT_TRUE(L.correct());
  EXPECT_EQ(L.failed(), 0u);
}

} // namespace
