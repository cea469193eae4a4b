#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"

namespace dbsherlock::common {
namespace {

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), std::sqrt(2.0));
}

TEST(StatsTest, EmptyInputsAreZero) {
  std::vector<double> xs;
  EXPECT_DOUBLE_EQ(Mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 0.0);
  EXPECT_DOUBLE_EQ(Median(xs), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Min(xs), 0.0);
  EXPECT_DOUBLE_EQ(Max(xs), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(Median(odd), 3.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Median(even), 2.5);
  std::vector<double> single{7};
  EXPECT_DOUBLE_EQ(Median(single), 7.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs{0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.125), 5.0);
}

TEST(StatsTest, QuantileClampsQ) {
  std::vector<double> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 2.0), 3.0);
}

TEST(StatsTest, MinMax) {
  std::vector<double> xs{3, -1, 7, 0};
  EXPECT_DOUBLE_EQ(Min(xs), -1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 7.0);
}

TEST(NormalizeTest, ScalarAndVector) {
  EXPECT_DOUBLE_EQ(MinMaxNormalize(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(MinMaxNormalize(0.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(MinMaxNormalize(10.0, 0.0, 10.0), 1.0);
  // Degenerate range maps to 0 (a constant attribute cannot separate).
  EXPECT_DOUBLE_EQ(MinMaxNormalize(5.0, 5.0, 5.0), 0.0);

  std::vector<double> xs{2, 4, 6};
  std::vector<double> n = MinMaxNormalize(xs);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(SlidingMedianTest, Basic) {
  std::vector<double> xs{1, 2, 3, 10, 3, 2, 1};
  std::vector<double> med = SlidingMedian(xs, 3);
  ASSERT_EQ(med.size(), 5u);
  EXPECT_DOUBLE_EQ(med[0], 2.0);
  EXPECT_DOUBLE_EQ(med[1], 3.0);
  EXPECT_DOUBLE_EQ(med[2], 3.0);
  EXPECT_DOUBLE_EQ(med[3], 3.0);
  EXPECT_DOUBLE_EQ(med[4], 2.0);
}

TEST(SlidingMedianTest, WindowLargerThanInput) {
  std::vector<double> xs{1, 2};
  EXPECT_TRUE(SlidingMedian(xs, 3).empty());
  EXPECT_TRUE(SlidingMedian(xs, 0).empty());
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// SlidingMedian keeps one sorted window instead of a selection per window;
// every entry must still carry exactly the bits of Median() on that window.
// Series are continuous, tied (a small alphabet), tied with both signs of
// zero, and hostile (NaN, infinities), over every length 0-300.
TEST(SlidingMedianTest, BitIdenticalToPerWindowMedian) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> alphabets = {
      {},  // continuous: Gaussian draws
      {0.0, 1.0, 1.5, -2.0, 0.25},
      {0.0, -0.0, 1.0, -1.0, 0.5},
      {0.0, -0.0, 1.0, nan, inf, -inf, 3.0},
  };
  Pcg32 rng(0x5eed);
  for (size_t n = 0; n <= 300; ++n) {
    for (const std::vector<double>& alphabet : alphabets) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = alphabet.empty()
                ? rng.NextGaussian()
                : alphabet[rng.NextBounded(
                      static_cast<uint32_t>(alphabet.size()))];
      }
      for (size_t w : {size_t{1}, size_t{2}, size_t{3}, size_t{19},
                       size_t{20}, size_t{21}, n}) {
        std::vector<double> got = SlidingMedian(xs, w);
        size_t expected_size = (w == 0 || n < w) ? 0 : n - w + 1;
        ASSERT_EQ(got.size(), expected_size) << "n=" << n << " w=" << w;
        std::span<const double> all(xs);
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(Median(all.subspan(i, w))))
              << "n=" << n << " w=" << w << " window=" << i
              << " alphabet=" << alphabet.size();
        }
      }
    }
  }
}

TEST(HistogramTest, BinningAndCounts) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);   // bin 0
  h.Add(9.5);   // bin 4
  h.Add(10.0);  // clamps to bin 4
  h.Add(-3.0);  // clamps to bin 0
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(HistogramTest, EntropyUniformVsPoint) {
  Histogram uniform(0.0, 4.0, 4);
  for (double v : {0.5, 1.5, 2.5, 3.5}) uniform.Add(v);
  EXPECT_NEAR(uniform.Entropy(), std::log(4.0), 1e-12);

  Histogram point(0.0, 4.0, 4);
  for (int i = 0; i < 4; ++i) point.Add(0.5);
  EXPECT_DOUBLE_EQ(point.Entropy(), 0.0);
}

TEST(JointHistogramTest, IndependentVariablesHaveLowKappa) {
  Pcg32 rng(99);
  std::vector<double> xs, ys;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.NextDouble());
    ys.push_back(rng.NextDouble());
  }
  double kappa = IndependenceFactor(xs, ys, 20);
  EXPECT_LT(kappa, 0.05);
}

TEST(JointHistogramTest, IdenticalVariablesHaveKappaNearOne) {
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(static_cast<double>(i % 97));
  double kappa = IndependenceFactor(xs, xs, 20);
  EXPECT_GT(kappa, 0.9);
}

TEST(JointHistogramTest, LinearDependenceHasHighKappa) {
  Pcg32 rng(7);
  std::vector<double> xs, ys;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.NextDouble();
    xs.push_back(x);
    ys.push_back(3.0 * x + 1.0);
  }
  EXPECT_GT(IndependenceFactor(xs, ys, 20), 0.8);
}

TEST(JointHistogramTest, MismatchedSizesGiveZero) {
  std::vector<double> xs{1, 2, 3};
  std::vector<double> ys{1, 2};
  EXPECT_DOUBLE_EQ(IndependenceFactor(xs, ys, 10), 0.0);
}

TEST(JointHistogramTest, ConstantAttributeGivesZeroKappa) {
  std::vector<double> xs(100, 5.0);
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) ys.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(IndependenceFactor(xs, ys, 10), 0.0);
}

TEST(JointHistogramTest, MutualInformationNonNegative) {
  JointHistogram jh(0, 1, 4, 0, 1, 4);
  jh.Add(0.1, 0.9);
  jh.Add(0.9, 0.1);
  EXPECT_GE(jh.MutualInformation(), 0.0);
}

TEST(BinaryClassificationTest, PerfectClassifier) {
  BinaryClassificationCounts c;
  for (int i = 0; i < 10; ++i) c.Add(true, true);
  for (int i = 0; i < 20; ++i) c.Add(false, false);
  EXPECT_DOUBLE_EQ(c.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(c.F1(), 1.0);
}

TEST(BinaryClassificationTest, MixedCounts) {
  BinaryClassificationCounts c;
  c.true_positives = 6;
  c.false_positives = 2;
  c.false_negatives = 4;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.75);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.6);
  EXPECT_NEAR(c.F1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
}

TEST(BinaryClassificationTest, DegenerateDenominators) {
  BinaryClassificationCounts c;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.F1(), 0.0);
}

}  // namespace
}  // namespace dbsherlock::common
