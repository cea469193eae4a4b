#include "core/anomaly_detector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "simulator/dataset_gen.h"

namespace dbsherlock::core {
namespace {

TEST(PotentialPowerTest, FlatSeriesIsZeroish) {
  std::vector<double> flat(100, 0.5);
  EXPECT_DOUBLE_EQ(PotentialPower(flat, 20), 0.0);
}

TEST(PotentialPowerTest, StepSeriesIsLarge) {
  std::vector<double> series(100, 0.0);
  for (size_t i = 40; i < 70; ++i) series[i] = 1.0;
  EXPECT_GT(PotentialPower(series, 20), 0.9);
}

TEST(PotentialPowerTest, SingleSpikeIsDampedByMedianFilter) {
  // The median filter ignores a 1-sample spike in a window of 20 — this is
  // why potential power beats max-deviation feature selection on noisy
  // telemetry.
  std::vector<double> series(100, 0.5);
  series[50] = 1.0;
  EXPECT_LT(PotentialPower(series, 20), 0.1);
}

TEST(PotentialPowerTest, ShortSeriesReturnsZero) {
  std::vector<double> series(10, 0.5);
  EXPECT_DOUBLE_EQ(PotentialPower(series, 20), 0.0);
  EXPECT_DOUBLE_EQ(PotentialPower(series, 0), 0.0);
}

/// A dataset with `n` rows where attributes shift inside [start, end).
tsdata::Dataset DetectorData(size_t n, size_t start, size_t end,
                             uint64_t seed) {
  tsdata::Dataset d(tsdata::Schema(
      {{"latency", tsdata::AttributeKind::kNumeric},
       {"cpu", tsdata::AttributeKind::kNumeric},
       {"noise", tsdata::AttributeKind::kNumeric},
       {"mode", tsdata::AttributeKind::kCategorical}}));
  common::Pcg32 rng(seed);
  for (size_t t = 0; t < n; ++t) {
    bool ab = t >= start && t < end;
    double latency = (ab ? 80.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    // An uninformative attribute. Gaussian, not uniform: a uniform column
    // would have sliding-window medians wandering past PPt by itself and
    // be (correctly, per the paper's rule) selected as a feature.
    double noise = 50.0 + rng.NextGaussian(0.0, 2.0);
    EXPECT_TRUE(
        d.AppendRow(static_cast<double>(t),
                    {latency, cpu, noise, std::string("steady")})
            .ok());
  }
  return d;
}

TEST(DetectAnomaliesTest, FindsInjectedWindow) {
  tsdata::Dataset d = DetectorData(600, 300, 360, 31);
  DetectionResult result = DetectAnomalies(d, {});
  // The detector selects the shifted attributes...
  ASSERT_GE(result.selected_attributes.size(), 2u);
  EXPECT_EQ(result.selected_attributes[0], "latency");
  EXPECT_EQ(result.selected_attributes[1], "cpu");
  // ...and flags (roughly) the injected rows.
  ASSERT_FALSE(result.abnormal_rows.empty());
  size_t inside = 0;
  for (size_t row : result.abnormal_rows) {
    if (row >= 300 && row < 360) ++inside;
  }
  double precision = static_cast<double>(inside) /
                     static_cast<double>(result.abnormal_rows.size());
  double recall = static_cast<double>(inside) / 60.0;
  EXPECT_GT(precision, 0.9);
  // A few boundary rows land as DBSCAN noise (unreported), so recall is
  // below 1 even on a clean step — the paper's detector has the same
  // property (Table 7: automatic trails manual slightly).
  EXPECT_GT(recall, 0.65);
}

TEST(DetectAnomaliesTest, RegionSpecCoversFlaggedRows) {
  tsdata::Dataset d = DetectorData(600, 300, 360, 32);
  DetectionResult result = DetectAnomalies(d, {});
  for (size_t row : result.abnormal_rows) {
    EXPECT_TRUE(result.abnormal.Contains(d.timestamp(row)));
  }
}

TEST(DetectAnomaliesTest, NoAnomalyMeansNothingSelected) {
  tsdata::Dataset d = DetectorData(600, 0, 0, 33);  // no shift anywhere
  DetectionResult result = DetectAnomalies(d, {});
  EXPECT_TRUE(result.selected_attributes.empty());
  EXPECT_TRUE(result.abnormal_rows.empty());
  EXPECT_TRUE(result.abnormal.empty());
}

TEST(DetectAnomaliesTest, EmptyDataset) {
  tsdata::Dataset d(tsdata::Schema(
      {{"x", tsdata::AttributeKind::kNumeric}}));
  DetectionResult result = DetectAnomalies(d, {});
  EXPECT_TRUE(result.abnormal_rows.empty());
}

TEST(DetectAnomaliesTest, LargeAnomalyExceedsClusterCutoff) {
  // When the "anomaly" covers half the data it is no longer a small
  // cluster, so nothing is reported (the paper's <20% assumption).
  tsdata::Dataset d = DetectorData(600, 100, 400, 34);
  DetectionResult result = DetectAnomalies(d, {});
  size_t inside = 0;
  for (size_t row : result.abnormal_rows) {
    if (row >= 100 && row < 400) ++inside;
  }
  EXPECT_LT(inside, 200u);
}

TEST(DetectionToRegionsTest, GuardBandIsIgnored) {
  tsdata::Dataset d = DetectorData(600, 300, 360, 41);
  AnomalyDetectorOptions options;
  DetectionResult result = DetectAnomalies(d, options);
  ASSERT_FALSE(result.abnormal.empty());
  tsdata::DiagnosisRegions regions = DetectionToRegions(result, d, options);
  const tsdata::TimeRange& core = regions.abnormal.ranges()[0];
  // Just inside the detected range: abnormal. Just outside (within the
  // guard): ignored. Far outside: normal.
  EXPECT_EQ(regions.LabelOf(core.start + 1.0), tsdata::RowLabel::kAbnormal);
  EXPECT_EQ(regions.LabelOf(core.start - 2.0), tsdata::RowLabel::kIgnored);
  EXPECT_EQ(regions.LabelOf(core.end + 2.0), tsdata::RowLabel::kIgnored);
  EXPECT_EQ(regions.LabelOf(core.start - options.boundary_guard_sec - 5.0),
            tsdata::RowLabel::kNormal);
  EXPECT_EQ(regions.LabelOf(core.end + options.boundary_guard_sec + 5.0),
            tsdata::RowLabel::kNormal);
}

TEST(DetectionToRegionsTest, ZeroGuardFallsBackToImplicitNormal) {
  tsdata::Dataset d = DetectorData(600, 300, 360, 42);
  AnomalyDetectorOptions options;
  options.boundary_guard_sec = 0.0;
  DetectionResult result = DetectAnomalies(d, options);
  tsdata::DiagnosisRegions regions = DetectionToRegions(result, d, options);
  EXPECT_TRUE(regions.normal.empty());
  EXPECT_FALSE(regions.abnormal.empty());
}

TEST(DetectionToRegionsTest, EmptyDetectionGivesEmptyRegions) {
  tsdata::Dataset d = DetectorData(600, 0, 0, 43);
  AnomalyDetectorOptions options;
  DetectionResult result = DetectAnomalies(d, options);
  tsdata::DiagnosisRegions regions = DetectionToRegions(result, d, options);
  EXPECT_TRUE(regions.abnormal.empty());
  EXPECT_TRUE(regions.normal.empty());
}

TEST(DetectAnomaliesTest, FragmentsBridgedByMergeGap) {
  // Two abnormal windows 3 s apart merge into one region.
  tsdata::Dataset d(tsdata::Schema(
      {{"x", tsdata::AttributeKind::kNumeric}}));
  common::Pcg32 rng(44);
  for (size_t t = 0; t < 600; ++t) {
    bool ab = (t >= 300 && t < 325) || (t >= 328 && t < 355);
    ASSERT_TRUE(
        d.AppendRow(static_cast<double>(t),
                    {(ab ? 80.0 : 10.0) + rng.NextGaussian(0.0, 1.0)})
            .ok());
  }
  DetectionResult result = DetectAnomalies(d, {});
  ASSERT_EQ(result.abnormal.ranges().size(), 1u);
  EXPECT_LE(result.abnormal.ranges()[0].start, 302.0);
  EXPECT_GE(result.abnormal.ranges()[0].end, 352.0);
}

// Sweep anomaly positions and lengths: detection stays accurate.
struct DetectParam {
  size_t start;
  size_t len;
};
class DetectionSweep : public ::testing::TestWithParam<DetectParam> {};

TEST_P(DetectionSweep, RecoversWindow) {
  DetectParam p = GetParam();
  tsdata::Dataset d =
      DetectorData(600, p.start, p.start + p.len, 100 + p.start + p.len);
  DetectionResult result = DetectAnomalies(d, {});
  ASSERT_FALSE(result.abnormal_rows.empty());
  size_t inside = 0;
  for (size_t row : result.abnormal_rows) {
    if (row >= p.start && row < p.start + p.len) ++inside;
  }
  double recall =
      static_cast<double>(inside) / static_cast<double>(p.len);
  EXPECT_GT(recall, 0.7) << "start=" << p.start << " len=" << p.len;
}

INSTANTIATE_TEST_SUITE_P(
    WindowSweep, DetectionSweep,
    ::testing::Values(DetectParam{50, 40}, DetectParam{200, 60},
                      DetectParam{450, 80}, DetectParam{520, 50},
                      DetectParam{30, 100}));

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A fixture recorded from the original per-window-median / copy-and-select
// / push-every-neighbor detector, on one daemon-sized monitor window (640
// simulated rows x 50 attributes, I/O saturation at 300-340 s). The
// detector's cheaper algorithms must reproduce it bit for bit, on both the
// batch and the row-major path.
TEST(DetectAnomaliesTest, MonitorWindowMatchesRecordedFixture) {
  simulator::DatasetGenOptions gen;
  gen.seed = 1007;
  gen.normal_duration_sec = 600.0;
  simulator::GeneratedDataset ds = simulator::GenerateAnomalyDataset(
      gen, simulator::AnomalyKind::kIoSaturation, 40.0);
  ASSERT_EQ(ds.data.num_rows(), 640u);
  ASSERT_EQ(ds.data.num_attributes(), 50u);

  const std::vector<size_t> want_rows = {
      249, 254, 300, 301, 302, 303, 304, 309, 310, 311, 312,
      313, 314, 315, 317, 318, 319, 320, 322, 323, 325, 326,
      327, 328, 329, 330, 331, 337, 338, 339, 449, 454};
  const std::vector<std::pair<uint64_t, uint64_t>> want_ranges = {
      {0x406f200000000000, 0x406fe00000000000},
      {0x4072c00000000000, 0x4074c00000000000},
      {0x4075100000000000, 0x4075400000000000},
      {0x407c100000000000, 0x407c700000000000}};
  const std::vector<std::string> want_selected = {
      "os_cpu_iowait",    "os_context_switches", "disk_write_iops",
      "disk_write_kb",    "disk_queue_depth",    "disk_util"};
  for (bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batch kernels" : "row-major reference");
    AnomalyDetectorOptions options;
    options.use_batch_kernels = batch;
    DetectionResult result = DetectAnomalies(ds.data, options);
    EXPECT_EQ(Bits(result.epsilon), 0x3fccad0e07f6fa20u);
    EXPECT_EQ(result.abnormal_rows, want_rows);
    EXPECT_EQ(result.selected_attributes, want_selected);
    ASSERT_EQ(result.abnormal.ranges().size(), want_ranges.size());
    for (size_t i = 0; i < want_ranges.size(); ++i) {
      EXPECT_EQ(Bits(result.abnormal.ranges()[i].start), want_ranges[i].first);
      EXPECT_EQ(Bits(result.abnormal.ranges()[i].end), want_ranges[i].second);
    }
  }
}

}  // namespace
}  // namespace dbsherlock::core
