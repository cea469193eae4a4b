#include "core/dbscan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/random.h"

namespace dbsherlock::core {
namespace {

std::vector<std::vector<double>> TwoBlobs(size_t n_per_blob, uint64_t seed) {
  common::Pcg32 rng(seed);
  std::vector<std::vector<double>> points;
  for (size_t i = 0; i < n_per_blob; ++i) {
    points.push_back({rng.NextGaussian(0.0, 0.1), rng.NextGaussian(0.0, 0.1)});
  }
  for (size_t i = 0; i < n_per_blob; ++i) {
    points.push_back(
        {rng.NextGaussian(10.0, 0.1), rng.NextGaussian(10.0, 0.1)});
  }
  return points;
}

TEST(DbscanTest, SeparatesTwoBlobs) {
  auto points = TwoBlobs(50, 1);
  DbscanResult result = Dbscan(points, 1.0, 3);
  EXPECT_EQ(result.num_clusters, 2);
  // All points in the first blob share one id; second blob another.
  for (size_t i = 1; i < 50; ++i) {
    EXPECT_EQ(result.cluster_of[i], result.cluster_of[0]);
  }
  for (size_t i = 51; i < 100; ++i) {
    EXPECT_EQ(result.cluster_of[i], result.cluster_of[50]);
  }
  EXPECT_NE(result.cluster_of[0], result.cluster_of[50]);
}

TEST(DbscanTest, IsolatedPointIsNoise) {
  auto points = TwoBlobs(50, 2);
  points.push_back({100.0, -100.0});
  DbscanResult result = Dbscan(points, 1.0, 3);
  EXPECT_EQ(result.cluster_of.back(), -1);
}

TEST(DbscanTest, ClusterSizes) {
  auto points = TwoBlobs(30, 3);
  points.push_back({-50.0, -50.0});  // noise
  DbscanResult result = Dbscan(points, 1.0, 3);
  std::vector<size_t> sizes = result.ClusterSizes();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0] + sizes[1], 60u);
}

TEST(DbscanTest, HugeEpsMakesOneCluster) {
  auto points = TwoBlobs(20, 4);
  DbscanResult result = Dbscan(points, 1000.0, 3);
  EXPECT_EQ(result.num_clusters, 1);
}

TEST(DbscanTest, TinyEpsMakesAllNoise) {
  auto points = TwoBlobs(20, 5);
  DbscanResult result = Dbscan(points, 1e-9, 3);
  EXPECT_EQ(result.num_clusters, 0);
  for (int c : result.cluster_of) EXPECT_EQ(c, -1);
}

TEST(DbscanTest, MinPtsOneClustersEverything) {
  std::vector<std::vector<double>> points = {{0.0}, {100.0}};
  DbscanResult result = Dbscan(points, 0.5, 1);
  EXPECT_EQ(result.num_clusters, 2);
}

TEST(DbscanTest, EmptyInput) {
  DbscanResult result = Dbscan(std::vector<std::vector<double>>{}, 1.0, 3);
  EXPECT_EQ(result.num_clusters, 0);
  EXPECT_TRUE(result.cluster_of.empty());
}

TEST(DbscanTest, BorderPointJoinsCluster) {
  // A dense core of 5 points plus one border point within eps of the core
  // but itself not core.
  std::vector<std::vector<double>> points = {
      {0.0}, {0.1}, {0.2}, {0.3}, {0.4}, {1.2}};
  DbscanResult result = Dbscan(points, 0.9, 4);
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_EQ(result.cluster_of[5], 0);  // border point adopted
}

TEST(KDistancesTest, SimpleLine) {
  std::vector<std::vector<double>> points = {{0.0}, {1.0}, {3.0}};
  std::vector<double> k1 = KDistances(points, 1);
  EXPECT_DOUBLE_EQ(k1[0], 1.0);  // nearest other point of 0 is 1
  EXPECT_DOUBLE_EQ(k1[1], 1.0);
  EXPECT_DOUBLE_EQ(k1[2], 2.0);
  std::vector<double> k2 = KDistances(points, 2);
  EXPECT_DOUBLE_EQ(k2[0], 3.0);
  EXPECT_DOUBLE_EQ(k2[1], 2.0);
  EXPECT_DOUBLE_EQ(k2[2], 3.0);
}

TEST(KDistancesTest, KBeyondSizeClampsToFarthest) {
  std::vector<std::vector<double>> points = {{0.0}, {5.0}};
  std::vector<double> k = KDistances(points, 10);
  EXPECT_DOUBLE_EQ(k[0], 5.0);
}

TEST(KDistancesTest, NonPositiveKGivesZeros) {
  std::vector<std::vector<double>> points = {{0.0}, {5.0}};
  std::vector<double> k = KDistances(points, 0);
  EXPECT_DOUBLE_EQ(k[0], 0.0);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Seeded point sets for the batch-vs-reference differential below.
enum class Shape { kUniform, kDuplicates, kSharedBorder };

std::vector<std::vector<double>> MakePoints(Shape shape, size_t n,
                                            size_t dims, common::Pcg32& rng) {
  std::vector<std::vector<double>> points(n, std::vector<double>(dims));
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      switch (shape) {
        case Shape::kUniform:
          points[i][d] = rng.NextDouble();
          break;
        case Shape::kDuplicates:
          // A 3-value grid: most points have exact duplicates.
          points[i][d] = 0.5 * rng.NextBounded(3);
          break;
        case Shape::kSharedBorder:
          // Two tight blobs at 0 and 1 along dimension 0, each with a spur
          // toward the other, and lone points at 0.5 that are within 0.4
          // of both spurs: with eps = 0.45 and min_pts >= 4 they are border
          // points two clusters compete for.
          if (d == 0) {
            const double anchors[] = {0.0, 0.0, 0.1, 0.5, 0.9, 1.0, 1.0};
            double a = anchors[rng.NextBounded(7)];
            points[i][d] = (a == 0.1 || a == 0.5 || a == 0.9)
                               ? a
                               : a + rng.NextGaussian(0.0, 0.02);
          } else {
            points[i][d] = rng.NextGaussian(0.0, 0.01);
          }
          break;
      }
    }
  }
  return points;
}

// The dimension-major batch forms (the detector's path) must reproduce the
// row-major reference exactly: every k-distance bit, every label, the
// cluster count. Dims 1-12, n 0-400, duplicate points, shared border
// points, k in {1, 3, n-1, n+5}, min_pts 1-5.
TEST(DbscanBatchParityTest, MatchesRowMajorReference) {
  common::Pcg32 rng(0xdb5c);
  for (size_t dims = 1; dims <= 12; ++dims) {
    std::vector<size_t> sizes = {0, 1, 2, 3, 6, 41, 130};
    if (dims == 1 || dims == 2 || dims == 5 || dims == 12) sizes.push_back(400);
    for (size_t n : sizes) {
      for (Shape shape :
           {Shape::kUniform, Shape::kDuplicates, Shape::kSharedBorder}) {
        std::vector<std::vector<double>> points =
            MakePoints(shape, n, dims, rng);
        // Shuffle so border points are scanned before and after the cores
        // that claim them.
        rng.Shuffle(&points);
        std::vector<std::vector<double>> storage(dims, std::vector<double>(n));
        PointColumns columns;
        columns.num_points = n;
        for (size_t d = 0; d < dims; ++d) {
          for (size_t i = 0; i < n; ++i) storage[d][i] = points[i][d];
          columns.columns.push_back(storage[d].data());
        }
        SCOPED_TRACE(testing::Message()
                     << "dims=" << dims << " n=" << n
                     << " shape=" << static_cast<int>(shape));

        std::vector<double> eps_list = {0.45};
        for (int k : {1, 3, static_cast<int>(n) - 1, static_cast<int>(n) + 5}) {
          std::vector<double> want = KDistances(points, k);
          std::vector<double> got = KDistances(columns, k);
          ASSERT_EQ(got.size(), want.size()) << "k=" << k;
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "k=" << k << " i=" << i;
          }
          if (k == 3 && n > 0) {
            // The detector's rule, and a smaller eps that leaves noise.
            double max_kdist = *std::max_element(want.begin(), want.end());
            eps_list.push_back(max_kdist / 2.0);
            std::vector<double> sorted = want;
            std::sort(sorted.begin(), sorted.end());
            eps_list.push_back(sorted[n / 2]);
          }
        }
        for (double eps : eps_list) {
          for (int min_pts = 1; min_pts <= 5; ++min_pts) {
            DbscanResult want = Dbscan(points, eps, min_pts);
            DbscanResult got = Dbscan(columns, eps, min_pts);
            ASSERT_EQ(got.num_clusters, want.num_clusters)
                << "eps=" << eps << " min_pts=" << min_pts;
            ASSERT_EQ(got.cluster_of, want.cluster_of)
                << "eps=" << eps << " min_pts=" << min_pts;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dbsherlock::core
