// TenantStore: seal/scan/tail stitching, crash recovery (torn tails
// dropped exactly once, intact segments kept), retention by bytes and
// age, and the schema / ordering invariants the service relies on.

#include "store/tenant_store.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/faultenv.h"
#include "common/metrics.h"
#include "store/segment.h"
#include "tsdata/dataset.h"

namespace dbsherlock::store {
namespace {

using tsdata::AttributeKind;
using tsdata::Cell;
using tsdata::Dataset;
using tsdata::Schema;

Schema TestSchema() {
  return Schema({{"cpu", AttributeKind::kNumeric},
                 {"mode", AttributeKind::kCategorical}});
}

/// Per-test directory; wiped so reruns in the same TempDir start clean.
std::string StoreDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/dbsherlock_tstore_" +
                    std::to_string(getpid()) + "_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

std::unique_ptr<TenantStore> MustOpen(TenantStore::Options options) {
  auto store = TenantStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

TenantStore::Options SmallOptions(const std::string& dir) {
  TenantStore::Options options;
  options.dir = dir;
  options.schema = TestSchema();
  options.seal_rows = 10;
  options.fsync_on_seal = false;  // tests: speed over durability
  return options;
}

std::vector<Cell> Row(double cpu, const std::string& mode) {
  return {cpu, mode};
}

/// Appends rows t = [from, to) with cpu = t.
void Fill(TenantStore* store, int from, int to) {
  for (int t = from; t < to; ++t) {
    ASSERT_TRUE(
        store->Append(t, Row(t, t % 2 == 0 ? "even" : "odd")).ok());
  }
}

TEST(TenantStoreTest, AppendSealsEverySealRows) {
  auto store = MustOpen(SmallOptions(StoreDir("seal")));
  Fill(store.get(), 0, 25);
  EXPECT_EQ(store->num_segments(), 2u);
  EXPECT_EQ(store->sealed_rows(), 20u);
  EXPECT_EQ(store->active_rows(), 5u);
  ASSERT_TRUE(store->Seal().ok());
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_EQ(store->active_rows(), 0u);
  EXPECT_TRUE(store->Seal().ok());  // empty active: no-op
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_GT(store->compression_ratio(), 0.0);
}

TEST(TenantStoreTest, ScanStitchesSegmentsAndActiveTail) {
  auto store = MustOpen(SmallOptions(StoreDir("scan")));
  Fill(store.get(), 0, 25);  // 2 sealed segments + 5 active rows
  auto scan = store->Scan(7.0, 23.0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->num_rows(), 16u);  // [7, 23)
  for (size_t i = 0; i < scan->num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(scan->timestamp(i), 7.0 + i);
    EXPECT_DOUBLE_EQ(scan->column(0).numeric(i), 7.0 + i);
  }
  EXPECT_TRUE(scan->TimestampsSorted());
  // Categorical cells survive the stitch.
  const tsdata::Column& mode = scan->column(1);
  EXPECT_EQ(mode.CategoryName(mode.code(1)), "even");  // t = 8
}

TEST(TenantStoreTest, ScanOutsideHistoryIsEmptyAndBadRangeRejected) {
  auto store = MustOpen(SmallOptions(StoreDir("scanedge")));
  Fill(store.get(), 0, 12);
  auto empty = store->Scan(100.0, 200.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_rows(), 0u);
  EXPECT_FALSE(store->Scan(5.0, 5.0).ok());
  EXPECT_FALSE(store->Scan(9.0, 2.0).ok());
}

TEST(TenantStoreTest, ScanTailReturnsNewestRowsAcrossSegments) {
  auto store = MustOpen(SmallOptions(StoreDir("tail")));
  Fill(store.get(), 0, 25);
  auto tail = store->ScanTail(12);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->num_rows(), 12u);
  EXPECT_DOUBLE_EQ(tail->timestamp(0), 13.0);
  EXPECT_DOUBLE_EQ(tail->timestamp(11), 24.0);
  // More than stored: everything comes back.
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 25u);
}

TEST(TenantStoreTest, RejectsNonIncreasingTimestamps) {
  auto store = MustOpen(SmallOptions(StoreDir("order")));
  ASSERT_TRUE(store->Append(5.0, Row(1, "even")).ok());
  EXPECT_FALSE(store->Append(5.0, Row(2, "odd")).ok());   // duplicate
  EXPECT_FALSE(store->Append(4.0, Row(3, "even")).ok());  // decreasing
  ASSERT_TRUE(store->Append(6.0, Row(4, "even")).ok());
  // The invariant spans a seal: last sealed ts still fences appends.
  Fill(store.get(), 7, 17);
  ASSERT_GE(store->num_segments(), 1u);
  EXPECT_FALSE(store->Append(3.0, Row(5, "odd")).ok());
}

TEST(TenantStoreTest, ReopenRecoversEverySealedRow) {
  std::string dir = StoreDir("reopen");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 37);
    ASSERT_TRUE(store->Seal().ok());  // persist the 7-row tail
  }
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 4u);
  EXPECT_EQ(store->recovery().rows_recovered, 37u);
  EXPECT_EQ(store->recovery().segments_dropped, 0u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 37u);
  // Appends continue after the recovered history.
  EXPECT_FALSE(store->Append(36.0, Row(0, "even")).ok());
  EXPECT_TRUE(store->Append(37.0, Row(0, "odd")).ok());
}

TEST(TenantStoreTest, AdoptsSchemaFromDiskWhenUnspecified) {
  std::string dir = StoreDir("adopt");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  TenantStore::Options options;
  options.dir = dir;  // schema left empty
  options.fsync_on_seal = false;
  auto store = MustOpen(std::move(options));
  EXPECT_TRUE(store->schema() == TestSchema());
  EXPECT_EQ(store->sealed_rows(), 10u);
}

TEST(TenantStoreTest, RejectsSchemaMismatchOnReopen) {
  std::string dir = StoreDir("mismatch");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  TenantStore::Options options = SmallOptions(dir);
  options.schema = Schema({{"other", AttributeKind::kNumeric}});
  auto store = TenantStore::Open(std::move(options));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(TenantStoreTest, TornTailIsDroppedExactlyOnce) {
  std::string dir = StoreDir("torn");
  std::string last_path;
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 30);  // 3 sealed segments
    last_path = store->Manifest().back().path;
  }
  // Simulate a crash mid-seal: chop the newest segment file in half.
  struct stat st{};
  ASSERT_EQ(::stat(last_path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(last_path.c_str(), st.st_size / 2), 0);

  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 2u);
  EXPECT_EQ(store->recovery().segments_dropped, 1u);
  EXPECT_GT(store->recovery().bytes_dropped, 0u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 20u);  // rows before the corruption survive
  // The torn file is gone from disk: a second reopen drops nothing.
  EXPECT_NE(::access(last_path.c_str(), F_OK), 0);
  auto again = MustOpen(SmallOptions(dir));
  EXPECT_EQ(again->recovery().segments_dropped, 0u);
  EXPECT_EQ(again->recovery().rows_recovered, 20u);
}

TEST(TenantStoreTest, CorruptMiddleSegmentIsDroppedOthersKept) {
  std::string dir = StoreDir("corruptmid");
  std::string mid_path;
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 30);
    mid_path = store->Manifest()[1].path;
  }
  // Flip one payload byte past the header.
  std::fstream f(mid_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(40);
  char byte = 0;
  f.seekg(40);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(40);
  f.write(&byte, 1);
  f.close();

  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 2u);
  EXPECT_EQ(store->recovery().segments_dropped, 1u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 20u);  // segments 1 and 3
  EXPECT_TRUE(all->TimestampsSorted());
}

TEST(TenantStoreTest, RetentionByBytesKeepsNewestSegments) {
  TenantStore::Options options = SmallOptions(StoreDir("retbytes"));
  auto store = MustOpen(options);
  Fill(store.get(), 0, 50);  // 5 segments
  uint64_t five_seg_bytes = store->sealed_bytes();
  ASSERT_EQ(store->num_segments(), 5u);
  // Budget for roughly two segments: older ones must go on next seal.
  store->SetRetention(/*retain_bytes=*/2 * five_seg_bytes / 5 + 64,
                      /*retain_age_sec=*/0.0);
  Fill(store.get(), 50, 60);  // triggers a seal + enforcement
  EXPECT_LT(store->num_segments(), 5u);
  EXPECT_GT(store->retention_deletes(), 0u);
  // Newest data is always intact.
  auto tail = store->ScanTail(10);
  ASSERT_TRUE(tail.ok());
  EXPECT_DOUBLE_EQ(tail->timestamp(9), 59.0);
  // Deleted files are really gone from disk.
  size_t files = 0;
  for (const auto& seg : store->Manifest()) {
    EXPECT_EQ(::access(seg.path.c_str(), F_OK), 0);
    ++files;
  }
  EXPECT_EQ(files, store->num_segments());
}

TEST(TenantStoreTest, RetentionByAgeDropsOldSegments) {
  TenantStore::Options options = SmallOptions(StoreDir("retage"));
  options.retain_age_sec = 25.0;
  auto store = MustOpen(options);
  Fill(store.get(), 0, 60);  // segments end at t=9,19,...,59
  // Segments whose max_ts < 59 - 25 = 34 are dropped: the first three.
  EXPECT_EQ(store->num_segments(), 3u);
  EXPECT_GE(store->retention_deletes(), 3u);
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ(all->timestamp(0), 30.0);
}

TEST(TenantStoreTest, RetentionNeverDeletesTheNewestSegment) {
  TenantStore::Options options = SmallOptions(StoreDir("retlast"));
  options.retain_bytes = 1;  // absurd budget
  auto store = MustOpen(options);
  Fill(store.get(), 0, 30);
  EXPECT_EQ(store->num_segments(), 1u);  // still one left
  auto tail = store->ScanTail(10);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->num_rows(), 10u);
}

TEST(TenantStoreTest, OpenRejectsMissingDirAndBadSealRows) {
  TenantStore::Options options;
  options.schema = TestSchema();
  EXPECT_FALSE(TenantStore::Open(options).ok());  // no dir
  options.dir = StoreDir("badseal");
  options.seal_rows = 0;
  EXPECT_FALSE(TenantStore::Open(options).ok());
}

TEST(TenantStoreTest, ForeignFilesInDirAreIgnored) {
  std::string dir = StoreDir("foreign");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  std::ofstream(dir + "/README.txt") << "not a segment\n";
  std::ofstream(dir + "/seg-junk.dbs") << "bad name, ignored\n";
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->recovery().segments_dropped, 0u);
  EXPECT_EQ(::access((dir + "/README.txt").c_str(), F_OK), 0);
}

/// Installs a faultenv schedule for one test and clears it on exit, so a
/// failing assertion can't leak injected faults into later tests.
struct ScopedSchedule {
  explicit ScopedSchedule(const std::string& spec) {
    EXPECT_TRUE(common::faultenv::InstallSchedule(spec).ok()) << spec;
  }
  ~ScopedSchedule() { common::faultenv::Clear(); }
};

TEST(TenantStoreTest, FailedSealFsyncKeepsRowsActiveAndRetries) {
  auto options = SmallOptions(StoreDir("fault_sealfsync"));
  options.fsync_on_seal = true;  // seg.fsync only fires on the real path
  auto store = MustOpen(options);
  Fill(store.get(), 0, 9);
  {
    ScopedSchedule schedule("seg.fsync=enospc@1,limit=1");
    // The 10th row trips the seal, which fails on fsync; the rows must
    // stay buffered, not vanish with the unlinked partial segment.
    EXPECT_FALSE(store->Append(9.0, Row(9, "odd")).ok());
    EXPECT_EQ(store->num_segments(), 0u);
    EXPECT_EQ(store->active_rows(), 10u);
    // The next append retries the seal under a fresh seq and succeeds.
    ASSERT_TRUE(store->Append(10.0, Row(10, "even")).ok());
  }
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_EQ(store->sealed_rows(), 11u);
  EXPECT_EQ(store->active_rows(), 0u);
}

TEST(TenantStoreTest, FailedSealWriteRecoversToTheLastSealedSegment) {
  std::string dir = StoreDir("fault_sealwrite");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);  // one cleanly sealed segment
    ASSERT_EQ(store->num_segments(), 1u);
    ScopedSchedule schedule("seg.write=torn@1,limit=1");
    Fill(store.get(), 10, 19);
    EXPECT_FALSE(store->Append(19.0, Row(19, "odd")).ok());  // torn seal
    EXPECT_EQ(store->num_segments(), 1u);
    EXPECT_EQ(store->active_rows(), 10u);
  }
  // A crash right after the failed seal: reopen finds only the segment
  // that was actually acked durable (the partial file was unlinked).
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->sealed_rows(), 10u);
  // History resumes exactly past the sealed high-water mark.
  EXPECT_FALSE(store->Append(9.0, Row(9, "odd")).ok());
  EXPECT_TRUE(store->Append(10.0, Row(10, "even")).ok());
}

// --- Zone-map pushdown (DESIGN.md §14) ---------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Downgrades a v2 segment blob to v1: strip the zone footer (framed
/// block + 8-byte trailer) and patch the version word — byte-for-byte
/// what the pre-footer encoder wrote.
std::string MakeV1(const std::string& v2) {
  EXPECT_GE(v2.size(), 8u);
  uint32_t zone_len = 0;
  for (int i = 0; i < 4; ++i) {
    zone_len |= static_cast<uint32_t>(
                    static_cast<uint8_t>(v2[v2.size() - 8 + i]))
                << (8 * i);
  }
  std::string v1 = v2.substr(0, v2.size() - 8 - zone_len);
  v1[4] = 1;
  return v1;
}

TEST(TenantStoreTest, ManifestCarriesZoneMaps) {
  auto store = MustOpen(SmallOptions(StoreDir("zones")));
  Fill(store.get(), 0, 10);
  auto manifest = store->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const ZoneMap& zones = manifest[0].zones;
  EXPECT_EQ(zones.rows, 10u);
  EXPECT_DOUBLE_EQ(zones.min_ts, 0.0);
  EXPECT_DOUBLE_EQ(zones.max_ts, 9.0);
  ASSERT_EQ(zones.attrs.size(), 2u);
  EXPECT_DOUBLE_EQ(zones.attrs[0].min, 0.0);
  EXPECT_DOUBLE_EQ(zones.attrs[0].max, 9.0);
  EXPECT_EQ(zones.attrs[0].non_nan_count, 10u);
  EXPECT_EQ(zones.attrs[0].finite_count, 10u);
  EXPECT_EQ(zones.attrs[1].non_nan_count, 10u);  // categorical: present
}

TEST(TenantStoreTest, PushdownPrunesSegmentsAndMatchesFullDecode) {
  auto store = MustOpen(SmallOptions(StoreDir("pushdown")));
  Fill(store.get(), 0, 50);  // 5 sealed segments, cpu == t
  // Time pruning alone: [25, 30) lives in exactly one segment.
  ScanOptions time_opts;
  time_opts.t0 = 25.0;
  time_opts.t1 = 30.0;
  ScanStats time_stats;
  auto window = store->ScanWithOptions(time_opts, &time_stats);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->num_rows(), 5u);
  EXPECT_EQ(time_stats.segments_total, 5u);
  EXPECT_EQ(time_stats.segments_skipped_time, 4u);
  EXPECT_EQ(time_stats.segments_decoded, 1u);
  // Attribute pruning: cpu in [35, 44] spans segments 4 and 5 only.
  ScanOptions zone_opts;
  zone_opts.bounds.push_back({"cpu", 35.0, 44.0});
  ScanStats zone_stats;
  auto bounded = store->ScanWithOptions(zone_opts, &zone_stats);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->num_rows(), 10u);
  EXPECT_EQ(zone_stats.segments_skipped_zone, 3u);
  EXPECT_EQ(zone_stats.segments_decoded, 2u);
  // Parity: the prune-free full decode returns the identical rows.
  ScanOptions full = zone_opts;
  full.prune = false;
  ScanStats full_stats;
  auto baseline = store->ScanWithOptions(full, &full_stats);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(full_stats.segments_decoded, 5u);
  EXPECT_EQ(full_stats.segments_skipped_zone, 0u);
  ASSERT_EQ(baseline->num_rows(), bounded->num_rows());
  for (size_t i = 0; i < baseline->num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(baseline->timestamp(i), bounded->timestamp(i));
    EXPECT_DOUBLE_EQ(baseline->column(0).numeric(i),
                     bounded->column(0).numeric(i));
  }
  // The cumulative pushdown counters moved.
  EXPECT_GE(store->scans_total(), 3u);
  EXPECT_GE(store->scan_segments_skipped(), 7u);
  // Unknown or categorical attributes are rejected, not silently ignored.
  ScanOptions bad;
  ScanStats sink;
  bad.bounds.push_back({"nope", 0.0, 1.0});
  EXPECT_FALSE(store->ScanWithOptions(bad, &sink).ok());
  bad.bounds = {{"mode", 0.0, 1.0}};
  EXPECT_FALSE(store->ScanWithOptions(bad, &sink).ok());
}

TEST(TenantStoreTest, MaxRowsCapsOutputAndTruncatedIsExact) {
  auto store = MustOpen(SmallOptions(StoreDir("cap")));
  Fill(store.get(), 0, 25);  // 2 sealed segments + 5 active rows
  ScanOptions opts;
  opts.max_rows = 7;
  ScanStats stats;
  auto r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 7u);
  EXPECT_DOUBLE_EQ(r->timestamp(6), 6.0);
  EXPECT_TRUE(stats.truncated);
  // Exactly as many matches as the cap: NOT truncated — the flag is
  // exact, never a guess.
  opts.max_rows = 25;
  r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 25u);
  EXPECT_FALSE(stats.truncated);
  opts.max_rows = 24;
  r = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 24u);
  EXPECT_TRUE(stats.truncated);
}

TEST(TenantStoreTest, UnsupportedSegmentVersionsFailOpenAndStayOnDisk) {
  // An intact segment this build cannot read — the retired footer-less v1
  // format, or a version-3 header from a newer build — is not a torn
  // tail: Open refuses the directory, names the file, and deletes nothing.
  for (char version : {1, 3}) {
    std::string dir = StoreDir("version" + std::to_string(version));
    std::vector<std::string> paths;
    {
      auto store = MustOpen(SmallOptions(dir));
      Fill(store.get(), 0, 20);
      for (const auto& seg : store->Manifest()) paths.push_back(seg.path);
    }
    ASSERT_EQ(paths.size(), 2u);
    std::string intact = ReadFileOrDie(paths[0]);
    std::string foreign = ReadFileOrDie(paths[1]);
    if (version == 1) foreign = MakeV1(foreign);
    foreign[4] = version;
    WriteFileOrDie(paths[1], foreign);

    auto reopened = TenantStore::Open(SmallOptions(dir));
    ASSERT_FALSE(reopened.ok()) << "version " << int{version};
    EXPECT_EQ(reopened.status().code(),
              common::StatusCode::kFailedPrecondition);
    EXPECT_NE(reopened.status().message().find(paths[1]), std::string::npos)
        << reopened.status().ToString();
    EXPECT_EQ(ReadFileOrDie(paths[0]), intact);
    EXPECT_EQ(ReadFileOrDie(paths[1]), foreign);
  }
}

TEST(TenantStoreTest, FooterWithWrongAttributeCountIsRecomputedAtRecovery) {
  std::string dir = StoreDir("footer_attrs");
  std::string path;
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);  // one sealed segment, cpu = t
    path = store->Manifest()[0].path;
  }
  // Swap in the CRC-valid footer of a one-attribute segment with the same
  // row count whose cpu zone (100..109) excludes every real value.
  Dataset other(Schema({{"cpu", AttributeKind::kNumeric}}));
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(other.AppendRow(t, {Cell(100.0 + t)}).ok());
  }
  std::string foreign = EncodeSegment(other);
  std::string own = ReadFileOrDie(path);
  size_t own_footer = own.size() - MakeV1(own).size();
  size_t foreign_footer = foreign.size() - MakeV1(foreign).size();
  WriteFileOrDie(path, own.substr(0, own.size() - own_footer) +
                           foreign.substr(foreign.size() - foreign_footer));
  auto zones = ReadSegmentZoneMap(ReadFileOrDie(path));
  ASSERT_TRUE(zones.ok()) << zones.status().ToString();
  ASSERT_EQ(zones->attrs.size(), 1u);

  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  ASSERT_EQ(store->Manifest()[0].zones.attrs.size(), 2u);
  // Pruning and quantiles run on the zone map computed from the rows.
  ScanOptions opts;
  opts.bounds.push_back({"cpu", 0.0, 5.0});
  ScanStats stats;
  auto pruned = store->ScanWithOptions(opts, &stats);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->num_rows(), 6u);
  QuantileStats qstats;
  auto max = store->ResolveQuantile("cpu", 1.0, &qstats);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(*max, 9.0);
}

TEST(TenantStoreTest, ZeroRowSegmentFilesAreDroppedAtRecovery) {
  std::string dir = StoreDir("emptyseg");
  {
    auto store = MustOpen(SmallOptions(dir));
    Fill(store.get(), 0, 10);
  }
  // A crash artifact: an intact, CRC-valid segment holding zero rows.
  // Pre-fix it entered the manifest stamped min_ts = max_ts = 0.0,
  // poisoning time pruning and pinning age-based retention.
  std::string path = dir + "/seg-00000099.dbs";
  WriteFileOrDie(path, EncodeSegment(tsdata::Dataset(TestSchema())));
  auto store = MustOpen(SmallOptions(dir));
  EXPECT_EQ(store->recovery().empty_segments_dropped, 1u);
  EXPECT_EQ(store->recovery().segments_recovered, 1u);
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // deleted from disk
  // Appends resume from the real high-water mark, not a phantom t=0.
  EXPECT_TRUE(store->Append(10.0, Row(10, "even")).ok());
  auto all = store->ScanTail(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->num_rows(), 11u);
}

TEST(TenantStoreTest, AppendsAreNotBlockedByASlowScan) {
  auto store = MustOpen(SmallOptions(StoreDir("noblock")));
  Fill(store.get(), 0, 40);  // 4 sealed segments
  // The scan's first segment read stalls 600 ms. Pre-fix, Scan held the
  // store lock across file I/O + decompression, so these appends queued
  // behind the stall; now they only touch the active segment.
  ScopedSchedule schedule("seg.read=stall@1,ms=600,limit=1");
  std::thread scanner([&store] {
    ScanOptions opts;
    ScanStats stats;
    auto r = store->ScanWithOptions(opts, &stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  // Let the scanner take its snapshot and block inside the stalled read.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  Fill(store.get(), 40, 45);  // 5 rows: no seal, no disk I/O
  double append_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  scanner.join();
  EXPECT_LT(append_ms, 300.0) << "appends blocked behind a stalled scan";
}

uint64_t RetentionRetriesMetric() {
  return common::MetricsRegistry::Global()
      .GetCounter("store.scan_retention_retries")
      ->value();
}

/// Runs `read` on its own thread against a store holding 5 sealed
/// segments (t = 0..49) and makes retention win the race by design: the
/// read's first segment open stalls *before* it opens, and only once that
/// stall is injected — the read holds its snapshot but has not opened the
/// file — does retention unlink every snapshotted segment. The open then
/// hits ENOENT whatever the decode batch size or core count.
void RaceRetention(TenantStore* store, const std::function<void()>& read) {
  ScopedSchedule schedule("seg.open=stall@1,ms=1000,limit=1");
  auto stalled = [] {
    common::JsonValue stats = common::faultenv::StatsJson();
    const common::JsonValue* site = stats.Find("seg.open");
    return site != nullptr && site->GetNumber("injected").ValueOr(0) >= 1;
  };
  std::thread reader(read);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!stalled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(stalled()) << "the read never reached a segment open";
  store->SetRetention(/*retain_bytes=*/1, /*retain_age_sec=*/0.0);
  Fill(store, 50, 60);  // seal -> retention unlinks the old files
  reader.join();
}

TEST(TenantStoreTest, ScanRetriesCleanlyWhenRetentionDeletesMidScan) {
  for (size_t parallelism : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    auto store = MustOpen(
        SmallOptions(StoreDir("race_scan" + std::to_string(parallelism))));
    Fill(store.get(), 0, 50);  // 5 sealed segments
    common::Status scan_status = common::Status::OK();
    ScanStats stats;
    size_t rows = 0;
    RaceRetention(store.get(), [&] {
      ScanOptions opts;
      opts.parallelism = parallelism;
      auto r = store->ScanWithOptions(opts, &stats);
      scan_status = r.status();
      if (r.ok()) rows = r->num_rows();
    });
    // The scan retried against the new manifest instead of failing.
    ASSERT_TRUE(scan_status.ok()) << scan_status.ToString();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(store->scan_retries(), 1u);
    EXPECT_EQ(rows, 10u);  // only the newest segment survived
  }
}

TEST(TenantStoreTest, ScanTailRetriesCleanlyWhenRetentionDeletesMidRead) {
  auto store = MustOpen(SmallOptions(StoreDir("race_tail")));
  Fill(store.get(), 0, 50);
  uint64_t metric_before = RetentionRetriesMetric();
  common::Result<Dataset> tail = common::Status::Internal("not run");
  RaceRetention(store.get(), [&] { tail = store->ScanTail(1000); });
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->num_rows(), 10u);
  EXPECT_DOUBLE_EQ(tail->timestamp(0), 50.0);
  EXPECT_EQ(store->scan_retries(), 1u);
  EXPECT_EQ(RetentionRetriesMetric() - metric_before, 1u);
}

TEST(TenantStoreTest, QuantileRetriesCleanlyWhenRetentionDeletesMidRead) {
  auto store = MustOpen(SmallOptions(StoreDir("race_quantile")));
  Fill(store.get(), 0, 50);  // cpu = t: the median decodes one segment
  uint64_t metric_before = RetentionRetriesMetric();
  common::Result<double> median = common::Status::Internal("not run");
  QuantileStats stats;
  RaceRetention(store.get(), [&] {
    median = store->ResolveQuantile("cpu", 0.5, &stats);
  });
  ASSERT_TRUE(median.ok()) << median.status().ToString();
  // Re-resolved over the surviving rows t = 50..59: rank ceil(0.5*10).
  EXPECT_DOUBLE_EQ(*median, 54.0);
  EXPECT_EQ(stats.values_total, 10u);
  EXPECT_EQ(store->scan_retries(), 1u);
  EXPECT_EQ(RetentionRetriesMetric() - metric_before, 1u);
}

TEST(TenantStoreTest, SegmentVanishingOutsideRetentionIsAnIoError) {
  auto store = MustOpen(SmallOptions(StoreDir("vanish")));
  Fill(store.get(), 0, 30);
  // Deleted by hand, not by retention: the generation check cannot
  // explain the hole, so this is real data loss, not a benign race.
  ASSERT_EQ(::unlink(store->Manifest()[0].path.c_str()), 0);
  ScanOptions opts;
  ScanStats stats;
  auto r = store->ScanWithOptions(opts, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace dbsherlock::store
