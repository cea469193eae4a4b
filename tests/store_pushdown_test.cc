// Fuzzed parity suite for zone-map pushdown scans (DESIGN.md §14): over
// random time ranges and attribute-bound predicates — against histories
// mixing sealed segments, an active tail, NaN and ±Inf cells — a pruned
// scan must return bit-identical rows to the prune-free full decode, at
// every decode parallelism, and a row-capped scan must be an exact
// prefix of the uncapped one with an exact `truncated` flag.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/tenant_store.h"
#include "tsdata/dataset.h"

namespace dbsherlock::store {
namespace {

using tsdata::AttributeKind;
using tsdata::Dataset;
using tsdata::Schema;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Schema FuzzSchema() {
  return Schema({{"cpu", AttributeKind::kNumeric},
                 {"io", AttributeKind::kNumeric},
                 {"spike", AttributeKind::kNumeric},
                 {"mode", AttributeKind::kCategorical}});
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectBitIdentical(const Dataset& a, const Dataset& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (size_t row = 0; row < a.num_rows(); ++row) {
    ASSERT_TRUE(BitEqual(a.timestamp(row), b.timestamp(row)))
        << context << " timestamp row " << row;
    for (size_t col = 0; col < a.schema().num_attributes(); ++col) {
      if (a.schema().attribute(col).kind == AttributeKind::kNumeric) {
        ASSERT_TRUE(BitEqual(a.column(col).numeric(row),
                             b.column(col).numeric(row)))
            << context << " col " << col << " row " << row;
      } else {
        const tsdata::Column& ca = a.column(col);
        const tsdata::Column& cb = b.column(col);
        ASSERT_EQ(ca.CategoryName(ca.code(row)),
                  cb.CategoryName(cb.code(row)))
            << context << " col " << col << " row " << row;
      }
    }
  }
}

/// Builds a hostile history: ~seal_rows-sized sealed segments plus an
/// unsealed active tail; per-segment value regimes (so zones actually
/// discriminate), NaN runs, and whole all-NaN / all-Inf stretches.
std::unique_ptr<TenantStore> BuildStore(const std::string& dir,
                                        uint64_t seed, size_t rows,
                                        double* first_ts, double* last_ts) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  TenantStore::Options options;
  options.dir = dir;
  options.schema = FuzzSchema();
  options.seal_rows = 16;
  options.fsync_on_seal = false;
  auto opened = TenantStore::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  auto store = std::move(*opened);

  common::Pcg32 rng(seed);
  static const char* kModes[] = {"read", "write", "idle"};
  double ts = rng.NextDouble(0.0, 10.0);
  double regime = 0.0;  // shifts every segment so zones differ
  for (size_t i = 0; i < rows; ++i) {
    if (i % options.seal_rows == 0) regime = rng.NextDouble(0.0, 1000.0);
    ts += rng.NextDouble(0.1, 2.0);
    double cpu = regime + rng.NextDouble(0.0, 50.0);
    double io = rng.NextBernoulli(0.1) ? kInf : rng.NextGaussian(0.0, 10.0);
    double spike = rng.NextBernoulli(0.5) ? kNaN : rng.NextDouble(-5.0, 5.0);
    if ((i / options.seal_rows) % 5 == 3) spike = kNaN;  // all-NaN segment
    if ((i / options.seal_rows) % 7 == 4) io = kInf;     // all-Inf segment
    EXPECT_TRUE(store
                    ->Append(ts, {cpu, io, spike,
                                  std::string(kModes[rng.NextInt(0, 2)])})
                    .ok());
    if (i == 0) *first_ts = ts;
  }
  *last_ts = ts;
  return store;
}

ScanOptions RandomScan(common::Pcg32* rng, double first_ts, double last_ts) {
  ScanOptions options;
  double span = last_ts - first_ts;
  // Time range: infinite, empty-ish, or a random window (possibly past
  // either end of the history).
  if (!rng->NextBernoulli(0.3)) {
    double a = first_ts + span * rng->NextDouble(-0.2, 1.2);
    double b = a + span * rng->NextDouble(0.001, 0.6);
    options.t0 = a;
    options.t1 = b;
  }
  // 0-2 attribute bounds over the numeric columns.
  static const char* kAttrs[] = {"cpu", "io", "spike"};
  int nbounds = rng->NextInt(0, 2);
  for (int b = 0; b < nbounds; ++b) {
    AttributeBound bound;
    bound.attribute = kAttrs[rng->NextInt(0, 2)];
    switch (rng->NextInt(0, 3)) {
      case 0:  // one-sided lower
        bound.lo = rng->NextDouble(-20.0, 1000.0);
        break;
      case 1:  // one-sided upper
        bound.hi = rng->NextDouble(-20.0, 1000.0);
        break;
      case 2: {  // closed interval
        double lo = rng->NextDouble(-20.0, 1000.0);
        bound.lo = lo;
        bound.hi = lo + rng->NextDouble(0.0, 200.0);
        break;
      }
      default:  // interval reaching +Inf, so all-Inf columns stay matched
        bound.lo = rng->NextDouble(0.0, 1000.0);
        bound.hi = kInf;
        break;
    }
    options.bounds.push_back(bound);
  }
  return options;
}

TEST(StorePushdownFuzzTest, PrunedScansAreBitIdenticalToFullDecode) {
  double first_ts = 0.0, last_ts = 0.0;
  auto store =
      BuildStore(testing::TempDir() + "/dbsherlock_pushfuzz_parity",
                 /*seed=*/1234, /*rows=*/200, &first_ts, &last_ts);
  ScanOptions history_opts;
  history_opts.prune = false;
  ScanStats history_stats;
  auto history = store->ScanWithOptions(history_opts, &history_stats);
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  // 200 rows = 12 sealed segments of 16 + an 8-row active tail.
  const size_t kTailSizes[] = {0, 5, 8, 9, 24, 25, 100, 199, 200, 201, 1000};
  common::Pcg32 rng(77);
  for (int trial = 0; trial < 150; ++trial) {
    ScanOptions pruned_opts = RandomScan(&rng, first_ts, last_ts);
    std::string context = "trial " + std::to_string(trial);
    // ScanTail(n) is the last n rows of the full-decode history.
    size_t n = kTailSizes[trial % std::size(kTailSizes)];
    auto tail = store->ScanTail(n);
    ASSERT_TRUE(tail.ok()) << context << ": " << tail.status().ToString();
    size_t rows = history->num_rows();
    ExpectBitIdentical(history->Slice(rows - std::min(n, rows), rows), *tail,
                       context + " tail " + std::to_string(n));
    ScanStats pruned_stats;
    auto pruned = store->ScanWithOptions(pruned_opts, &pruned_stats);
    ASSERT_TRUE(pruned.ok()) << context << ": "
                             << pruned.status().ToString();
    ScanOptions full_opts = pruned_opts;
    full_opts.prune = false;
    ScanStats full_stats;
    auto full = store->ScanWithOptions(full_opts, &full_stats);
    ASSERT_TRUE(full.ok()) << context;
    ExpectBitIdentical(*full, *pruned, context);
    // Pruning never decodes more than the full scan, and every sealed
    // segment is accounted for exactly once.
    EXPECT_LE(pruned_stats.segments_decoded, full_stats.segments_decoded)
        << context;
    EXPECT_EQ(pruned_stats.segments_total,
              pruned_stats.segments_skipped_time +
                  pruned_stats.segments_skipped_zone +
                  pruned_stats.segments_decoded)
        << context;
    EXPECT_EQ(full_stats.segments_decoded, full_stats.segments_total)
        << context;
  }
}

TEST(StorePushdownFuzzTest, ScansAreBitIdenticalAcrossParallelism) {
  double first_ts = 0.0, last_ts = 0.0;
  auto store =
      BuildStore(testing::TempDir() + "/dbsherlock_pushfuzz_threads",
                 /*seed=*/4321, /*rows=*/200, &first_ts, &last_ts);
  common::Pcg32 rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    ScanOptions serial_opts = RandomScan(&rng, first_ts, last_ts);
    serial_opts.parallelism = 1;
    ScanStats serial_stats;
    auto serial = store->ScanWithOptions(serial_opts, &serial_stats);
    ASSERT_TRUE(serial.ok()) << trial;
    for (size_t lanes : {2u, 8u}) {
      ScanOptions par_opts = serial_opts;
      par_opts.parallelism = lanes;
      ScanStats par_stats;
      auto parallel = store->ScanWithOptions(par_opts, &par_stats);
      ASSERT_TRUE(parallel.ok()) << trial;
      ExpectBitIdentical(*serial, *parallel,
                         "trial " + std::to_string(trial) + " lanes " +
                             std::to_string(lanes));
      EXPECT_EQ(serial_stats.segments_decoded, par_stats.segments_decoded);
    }
  }
}

TEST(StorePushdownFuzzTest, CappedScansArePrefixesWithExactTruncation) {
  double first_ts = 0.0, last_ts = 0.0;
  auto store =
      BuildStore(testing::TempDir() + "/dbsherlock_pushfuzz_cap",
                 /*seed=*/555, /*rows=*/150, &first_ts, &last_ts);
  common::Pcg32 rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    ScanOptions opts = RandomScan(&rng, first_ts, last_ts);
    ScanStats uncapped_stats;
    auto uncapped = store->ScanWithOptions(opts, &uncapped_stats);
    ASSERT_TRUE(uncapped.ok()) << trial;
    EXPECT_FALSE(uncapped_stats.truncated) << trial;
    ScanOptions capped_opts = opts;
    capped_opts.max_rows =
        static_cast<size_t>(rng.NextInt(1, 40));
    ScanStats capped_stats;
    auto capped = store->ScanWithOptions(capped_opts, &capped_stats);
    ASSERT_TRUE(capped.ok()) << trial;
    size_t expect_rows =
        std::min(capped_opts.max_rows, uncapped->num_rows());
    ASSERT_EQ(capped->num_rows(), expect_rows) << trial;
    EXPECT_EQ(capped_stats.truncated,
              uncapped->num_rows() > capped_opts.max_rows)
        << trial;
    for (size_t i = 0; i < expect_rows; ++i) {
      ASSERT_TRUE(BitEqual(capped->timestamp(i), uncapped->timestamp(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

}  // namespace
}  // namespace dbsherlock::store
