#include "store/tenant_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "common/faultenv.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "tsdata/dataset_io.h"

namespace dbsherlock::store {

namespace {

using common::Result;
using common::Status;

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".dbs";

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* data, size_t n, const std::string& path) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = common::faultenv::Write("seg.write", fd, data + done,
                                        n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

/// Slurps a segment file through the faultenv "seg.open" and "seg.read"
/// sites. A file that is gone entirely maps to NotFound so reads can tell
/// a retention race from real corruption.
Status ReadFile(const std::string& path, std::string* out) {
  int fd = common::faultenv::Open("seg.open", path.c_str(),
                                  O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("segment file gone: " + path);
    }
    return Errno("open", path);
  }
  out->clear();
  char buf[64 << 10];
  Status status;
  for (;;) {
    ssize_t n = common::faultenv::Read("seg.read", fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Errno("read", path);
      break;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return status;
}

/// Parses the sequence number out of "seg-%08llu.dbs"; nullopt for
/// foreign files, which recovery leaves untouched.
std::optional<uint64_t> ParseSegmentSeq(const std::string& name) {
  size_t prefix = sizeof(kSegmentPrefix) - 1;
  size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + common::StrFormat("%s%08llu%s", kSegmentPrefix,
                                       static_cast<unsigned long long>(seq),
                                       kSegmentSuffix);
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  Status status;
  if (common::faultenv::Fsync("seg.dirsync", fd) != 0) {
    status = Errno("fsync dir", dir);
  }
  ::close(fd);
  return status;
}

}  // namespace

TenantStore::TenantStore(Options options) : options_(std::move(options)) {}

TenantStore::~TenantStore() = default;

Result<std::unique_ptr<TenantStore>> TenantStore::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("TenantStore needs a directory");
  }
  if (options.seal_rows == 0) {
    return Status::InvalidArgument("seal_rows must be positive");
  }
  auto store = std::unique_ptr<TenantStore>(new TenantStore(options));
  if (::mkdir(store->options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", store->options_.dir);
  }
  {
    std::unique_lock lock(store->mu_);
    DBSHERLOCK_RETURN_NOT_OK(store->RecoverLocked());
  }
  return store;
}

Status TenantStore::RecoverLocked() {
  TRACE_SPAN("store.recover");
  auto& metrics = common::MetricsRegistry::Global();

  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return Errno("opendir", options_.dir);
  std::vector<std::pair<uint64_t, std::string>> found;
  for (dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (auto seq = ParseSegmentSeq(name)) found.emplace_back(*seq, name);
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end());

  bool schema_adopted = options_.schema.num_attributes() > 0;
  for (const auto& [seq, name] : found) {
    std::string path = options_.dir + "/" + name;
    std::string blob;
    DBSHERLOCK_RETURN_NOT_OK(ReadFile(path, &blob));
    // A full decode (not just the meta block) so a bit flip anywhere in
    // the file is caught now, not mid-Scan.
    auto decoded = DecodeSegment(blob);
    if (!decoded.ok()) {
      if (decoded.status().code() == common::StatusCode::kFailedPrecondition) {
        // An intact file of a format version this build cannot read (say,
        // written by a newer one) is not a torn tail: refuse to open
        // rather than delete history.
        return Status::FailedPrecondition("segment " + path + ": " +
                                          decoded.status().message());
      }
      // A corrupt segment is the torn tail of a crash mid-seal: drop it
      // here so every later open sees a clean directory (the tail is
      // truncated exactly once).
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
      ++recovery_.segments_dropped;
      recovery_.bytes_dropped += blob.size();
      metrics.GetCounter("store.recovery_dropped_segments")->Increment();
      continue;
    }
    if (!schema_adopted) {
      options_.schema = decoded->schema();
      schema_adopted = true;
    } else if (!(decoded->schema() == options_.schema)) {
      return Status::FailedPrecondition(common::StrFormat(
          "segment %s schema does not match the tenant schema (a tenant "
          "cannot change schema mid-history)",
          path.c_str()));
    }
    next_seq_ = std::max(next_seq_, seq + 1);
    if (decoded->num_rows() == 0) {
      // A zero-row segment carries no data, and its meaningless 0.0 time
      // bounds would poison manifest pruning and pin age-based retention
      // forever — drop the file, never stamp it into the manifest.
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
      ++recovery_.empty_segments_dropped;
      metrics.GetCounter("store.recovery_empty_dropped")->Increment();
      continue;
    }
    auto zones = ReadSegmentZoneMap(blob);
    SegmentInfo info;
    info.seq = seq;
    info.path = path;
    info.rows = decoded->num_rows();
    info.min_ts = decoded->timestamp(0);
    info.max_ts = decoded->timestamp(decoded->num_rows() - 1);
    info.bytes = blob.size();
    // A CRC-valid footer with the wrong attribute count is not trusted:
    // the manifest zone map is then computed from the decoded rows, so
    // every manifest entry covers every schema attribute.
    bool footer_fits =
        zones.ok() && zones->attrs.size() == options_.schema.num_attributes();
    info.zones = footer_fits ? std::move(*zones) : ComputeZoneMap(*decoded);
    have_last_ts_ = true;
    last_ts_ = std::max(last_ts_, info.max_ts);
    segments_.push_back(std::move(info));
    ++recovery_.segments_recovered;
    recovery_.rows_recovered += decoded->num_rows();
  }
  active_ = tsdata::Dataset(options_.schema);
  return Status::OK();
}

double TenantStore::last_ts_locked() const {
  if (active_.num_rows() > 0) {
    return active_.timestamp(active_.num_rows() - 1);
  }
  return last_ts_;
}

Status TenantStore::Append(double timestamp,
                           const std::vector<tsdata::Cell>& cells) {
  std::unique_lock lock(mu_);
  if (have_last_ts_ && !(timestamp > last_ts_locked())) {
    return Status::InvalidArgument(common::StrFormat(
        "store: timestamp %.3f not after %.3f", timestamp,
        last_ts_locked()));
  }
  DBSHERLOCK_RETURN_NOT_OK(active_.AppendRow(timestamp, cells));
  have_last_ts_ = true;
  if (active_.num_rows() >= options_.seal_rows) {
    DBSHERLOCK_RETURN_NOT_OK(SealLocked());
  }
  return Status::OK();
}

Status TenantStore::Seal() {
  std::unique_lock lock(mu_);
  return SealLocked();
}

Status TenantStore::SealLocked() {
  if (active_.num_rows() == 0) return Status::OK();
  TRACE_SPAN("store.seal");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.seal_us"));

  std::string blob = EncodeSegment(active_);
  // The honest baseline for the compression gauge: what these rows cost
  // as the CSV the rest of the repo exchanges telemetry in.
  size_t raw_bytes = tsdata::DatasetToCsv(active_).size();

  uint64_t seq = next_seq_++;
  std::string path = SegmentPath(options_.dir, seq);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  Status status = WriteAll(fd, blob.data(), blob.size(), path);
  if (status.ok() && options_.fsync_on_seal &&
      common::faultenv::Fsync("seg.fsync", fd) != 0) {
    status = Errno("fsync", path);
  }
  ::close(fd);
  if (!status.ok()) {
    // The rows stay in active_ and the next Append retries the seal under
    // a fresh seq; drop the partial file now so a restart that happens
    // before that retry doesn't have to (best-effort — recovery also
    // discards undecodable segments).
    (void)::unlink(path.c_str());
    metrics.GetCounter("store.seal_errors")->Increment();
    return status;
  }
  if (options_.fsync_on_seal) {
    DBSHERLOCK_RETURN_NOT_OK(FsyncDir(options_.dir));
  }

  SegmentInfo info;
  info.seq = seq;
  info.path = std::move(path);
  info.rows = active_.num_rows();
  info.min_ts = active_.timestamp(0);
  info.max_ts = active_.timestamp(active_.num_rows() - 1);
  info.bytes = blob.size();
  // The same map EncodeSegment just embedded in the footer.
  info.zones = ComputeZoneMap(active_);
  last_ts_ = info.max_ts;
  segments_.push_back(std::move(info));
  active_ = tsdata::Dataset(options_.schema);

  compressed_total_ += blob.size();
  raw_total_ += raw_bytes;
  metrics.GetCounter("store.segments_sealed")->Increment();
  if (raw_total_ > 0) {
    metrics.GetGauge("store.compression_ratio")
        ->Set(static_cast<double>(compressed_total_) /
              static_cast<double>(raw_total_));
  }
  EnforceRetentionLocked();
  return Status::OK();
}

void TenantStore::EnforceRetentionLocked() {
  auto& metrics = common::MetricsRegistry::Global();
  auto over_budget = [&] {
    if (segments_.size() <= 1) return false;  // always keep the newest
    if (options_.retain_bytes > 0) {
      uint64_t total = 0;
      for (const SegmentInfo& seg : segments_) total += seg.bytes;
      if (total > options_.retain_bytes) return true;
    }
    if (options_.retain_age_sec > 0.0) {
      if (segments_.front().max_ts < last_ts_ - options_.retain_age_sec) {
        return true;
      }
    }
    return false;
  };
  while (over_budget()) {
    const SegmentInfo& victim = segments_.front();
    // Best-effort: a failed unlink leaves the file for the next pass.
    if (::unlink(victim.path.c_str()) != 0 && errno != ENOENT) break;
    segments_.erase(segments_.begin());
    ++retention_deletes_;
    ++retention_generation_;
    metrics.GetCounter("store.retention_deletes")->Increment();
  }
}

void TenantStore::SetRetention(uint64_t retain_bytes, double retain_age_sec) {
  std::unique_lock lock(mu_);
  options_.retain_bytes = retain_bytes;
  options_.retain_age_sec = retain_age_sec;
}

namespace {

/// An AttributeBound resolved to a schema index.
struct ResolvedBound {
  size_t attr = 0;
  double lo = 0.0;
  double hi = 0.0;
};

Status ResolveBounds(const tsdata::Schema& schema,
                     const std::vector<AttributeBound>& bounds,
                     std::vector<ResolvedBound>* out) {
  out->clear();
  out->reserve(bounds.size());
  for (const AttributeBound& b : bounds) {
    auto idx = schema.IndexOf(b.attribute);
    if (!idx.ok()) {
      return Status::InvalidArgument("scan bound on unknown attribute '" +
                                     b.attribute + "'");
    }
    if (schema.attribute(*idx).kind == tsdata::AttributeKind::kCategorical) {
      return Status::InvalidArgument(
          "scan bound on categorical attribute '" + b.attribute + "'");
    }
    if (std::isnan(b.lo) || std::isnan(b.hi)) {
      return Status::InvalidArgument("scan bound on '" + b.attribute +
                                     "' has NaN limit");
    }
    out->push_back({*idx, b.lo, b.hi});
  }
  return Status::OK();
}

/// Appends the rows of `src` inside [t0, t1) that satisfy every bound
/// (NaN never matches) to `dst`.
Status AppendMatching(const tsdata::Dataset& src, double t0, double t1,
                      const std::vector<ResolvedBound>& bounds,
                      tsdata::Dataset* dst) {
  std::vector<tsdata::Cell> cells(src.num_attributes());
  for (size_t row : src.RowsInTimeRange(t0, t1)) {
    bool pass = true;
    for (const ResolvedBound& b : bounds) {
      double v = src.column(b.attr).numeric(row);
      if (!(v >= b.lo && v <= b.hi)) {  // NaN fails both comparisons
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (size_t i = 0; i < src.num_attributes(); ++i) {
      const tsdata::Column& column = src.column(i);
      if (column.kind() == tsdata::AttributeKind::kNumeric) {
        cells[i] = column.numeric(row);
      } else {
        cells[i] = column.CategoryName(column.code(row));
      }
    }
    DBSHERLOCK_RETURN_NOT_OK(
        dst->AppendRowUnchecked(src.timestamp(row), cells));
  }
  return Status::OK();
}

Result<tsdata::Dataset> FilterChunk(const tsdata::Dataset& src, double t0,
                                    double t1,
                                    const std::vector<ResolvedBound>& bounds) {
  tsdata::Dataset dst(src.schema());
  DBSHERLOCK_RETURN_NOT_OK(AppendMatching(src, t0, t1, bounds, &dst));
  return dst;
}

/// Stitches delivered chunks verbatim onto `*out`, which starts over
/// when a read restarts.
ScanVisitor StitchInto(tsdata::Dataset* out) {
  ScanVisitor visitor;
  visitor.on_chunk = [out](const tsdata::Dataset& chunk) {
    return AppendMatching(chunk, -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity(), {}, out);
  };
  visitor.on_reset = [out] { *out = tsdata::Dataset(out->schema()); };
  return visitor;
}

/// Per-segment result of the parallel decode stage. A NotFound status
/// comes only from ReadFile: the file is gone.
struct SegmentChunk {
  Status status;
  tsdata::Dataset chunk;
};

}  // namespace

Status TenantStore::ReadPipeline(const ReadPlanner& planner,
                                 const SegmentStep& step,
                                 const ScanVisitor& consumer,
                                 size_t max_rows, size_t parallelism,
                                 ScanStats* stats) const {
  // Ordered batches bound peak memory (a handful of inflated segments per
  // lane) and let the row cap stop the read early; ordered stitching keeps
  // the output bit-identical across parallelism settings.
  const size_t batch = 4 * common::EffectiveParallelism(parallelism);

  // One attempt. Sets `raced` when retention unlinked a snapshotted file
  // before the read opened it.
  auto read_once = [&](bool* raced) -> Status {
    // Snapshot under the shared lock: manifest copy, active-tail copy,
    // retention generation. No file I/O or decompression happens while
    // the lock is held, so a long retro-scan never stalls Append/Seal.
    std::vector<SegmentInfo> snapshot;
    tsdata::Dataset active;
    uint64_t generation = 0;
    {
      std::shared_lock lock(mu_);
      snapshot = segments_;
      active = active_;
      generation = retention_generation_;
    }
    stats->segments_total = snapshot.size();
    std::vector<size_t> plan;
    DBSHERLOCK_RETURN_NOT_OK(planner(snapshot, &active, &plan, stats));

    // Deliver a chunk, honouring the row cap. After the cap is reached
    // the read keeps decoding only until one more row proves truncation —
    // so `truncated` is exact, never a guess.
    uint64_t emitted = 0;
    bool done = false;
    auto deliver = [&](const tsdata::Dataset& chunk) -> Status {
      if (chunk.num_rows() == 0) return Status::OK();
      if (max_rows > 0) {
        if (emitted >= max_rows) {
          stats->truncated = true;
          done = true;
          return Status::OK();
        }
        if (emitted + chunk.num_rows() > max_rows) {
          size_t take = static_cast<size_t>(max_rows - emitted);
          emitted += take;
          stats->truncated = true;
          done = true;
          stats->rows_out = emitted;
          return consumer.on_chunk(chunk.Slice(0, take));
        }
      }
      emitted += chunk.num_rows();
      stats->rows_out = emitted;
      return consumer.on_chunk(chunk);
    };

    for (size_t base = 0; base < plan.size() && !done; base += batch) {
      size_t count = std::min(batch, plan.size() - base);
      std::vector<SegmentChunk> results = common::ParallelMap(
          count,
          [&](size_t i) {
            SegmentChunk out;
            const SegmentInfo& seg = snapshot[plan[base + i]];
            std::string blob;
            out.status = ReadFile(seg.path, &blob);
            if (!out.status.ok()) return out;
            auto decoded = DecodeSegment(blob);
            if (!decoded.ok()) {
              out.status = Status::IoError("corrupt sealed segment " +
                                           seg.path + ": " +
                                           decoded.status().message());
              return out;
            }
            auto chunk = step(base + i, std::move(*decoded));
            if (!chunk.ok()) {
              out.status = chunk.status();
              return out;
            }
            out.chunk = std::move(*chunk);
            return out;
          },
          parallelism);
      stats->segments_decoded += count;
      for (SegmentChunk& r : results) {
        if (r.status.code() == common::StatusCode::kNotFound) {
          std::shared_lock lock(mu_);
          *raced = generation != retention_generation_;
          if (*raced) return r.status;
          return Status::IoError(
              "sealed segment vanished outside retention: " +
              r.status.message());
        }
        DBSHERLOCK_RETURN_NOT_OK(r.status);
        DBSHERLOCK_RETURN_NOT_OK(deliver(r.chunk));
        if (done) break;
      }
    }
    if (!done) DBSHERLOCK_RETURN_NOT_OK(deliver(active));
    return Status::OK();
  };

  // A read that raced retention restarts from a fresh snapshot; the
  // attempt cap turns a pathological churn loop into an honest error.
  constexpr int kMaxAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    *stats = ScanStats{};
    stats->retries = static_cast<size_t>(attempt - 1);
    bool raced = false;
    Status status = read_once(&raced);
    if (!raced) return status;
    if (attempt >= kMaxAttempts) {
      return Status::IoError("read raced retention " +
                             std::to_string(kMaxAttempts) +
                             " times; giving up: " + status.message());
    }
    scan_retries_.fetch_add(1, std::memory_order_relaxed);
    common::MetricsRegistry::Global()
        .GetCounter("store.scan_retention_retries")
        ->Increment();
    if (consumer.on_reset) consumer.on_reset();
  }
}

Result<tsdata::Dataset> TenantStore::Scan(double t0, double t1) const {
  ScanOptions options;
  options.t0 = t0;
  options.t1 = t1;
  ScanStats stats;
  return ScanWithOptions(options, &stats);
}

Result<tsdata::Dataset> TenantStore::ScanWithOptions(
    const ScanOptions& options, ScanStats* stats) const {
  tsdata::Dataset out(options_.schema);
  DBSHERLOCK_RETURN_NOT_OK(ScanVisit(options, StitchInto(&out), stats));
  return out;
}

Status TenantStore::ScanVisit(const ScanOptions& options,
                              const ScanVisitor& visitor,
                              ScanStats* stats) const {
  TRACE_SPAN("store.scan");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.scan_us"));
  if (!(options.t0 < options.t1)) {
    return Status::InvalidArgument("scan range must satisfy t0 < t1");
  }
  std::vector<ResolvedBound> bounds;
  // Plan: prune segments that provably cannot contribute. The time test
  // compares [min_ts, max_ts] against the half-open [t0, t1); the zone
  // test consults the per-attribute min/max written at seal time.
  auto plan = [&](const std::vector<SegmentInfo>& segments,
                  tsdata::Dataset* active, std::vector<size_t>* decode,
                  ScanStats* st) -> Status {
    for (size_t s = 0; s < segments.size(); ++s) {
      const SegmentInfo& seg = segments[s];
      if (options.prune) {
        if (seg.max_ts < options.t0 || seg.min_ts >= options.t1) {
          ++st->segments_skipped_time;
          continue;
        }
        if (std::any_of(bounds.begin(), bounds.end(),
                        [&](const ResolvedBound& b) {
                          return seg.zones.attrs[b.attr].CannotMatch(b.lo,
                                                                     b.hi);
                        })) {
          ++st->segments_skipped_zone;
          continue;
        }
      }
      decode->push_back(s);
    }
    auto tail = FilterChunk(*active, options.t0, options.t1, bounds);
    if (!tail.ok()) return tail.status();
    *active = std::move(*tail);
    return Status::OK();
  };
  auto filter = [&](size_t, tsdata::Dataset decoded) {
    return FilterChunk(decoded, options.t0, options.t1, bounds);
  };
  ScanStats local;
  Status status = ResolveBounds(options_.schema, options.bounds, &bounds);
  if (status.ok()) {
    status = ReadPipeline(plan, filter, visitor, options.max_rows,
                          options.parallelism, &local);
  }
  scans_total_.fetch_add(1, std::memory_order_relaxed);
  scan_segments_skipped_.fetch_add(
      local.segments_skipped_time + local.segments_skipped_zone,
      std::memory_order_relaxed);
  scan_segments_decoded_.fetch_add(local.segments_decoded,
                                   std::memory_order_relaxed);
  metrics.GetCounter("store.scan_segments_skipped")
      ->Increment(local.segments_skipped_time +
                  local.segments_skipped_zone);
  metrics.GetCounter("store.scan_segments_decoded")
      ->Increment(local.segments_decoded);
  if (stats != nullptr) *stats = local;
  return status;
}

Result<tsdata::Dataset> TenantStore::ScanTail(size_t max_rows) const {
  TRACE_SPAN("store.scan");
  // Plan the newest pieces, newest first, then flip to timestamp order.
  // Every planned segment but the oldest contributes all of its rows.
  size_t oldest_take = 0;
  auto plan = [&](const std::vector<SegmentInfo>& segments,
                  tsdata::Dataset* active, std::vector<size_t>* decode,
                  ScanStats*) -> Status {
    size_t needed = max_rows;
    size_t active_take = std::min(active->num_rows(), needed);
    needed -= active_take;
    *active = active->Slice(active->num_rows() - active_take,
                            active->num_rows());
    for (size_t s = segments.size(); s > 0 && needed > 0; --s) {
      oldest_take = std::min<size_t>(segments[s - 1].rows, needed);
      needed -= oldest_take;
      decode->push_back(s - 1);
    }
    std::reverse(decode->begin(), decode->end());
    return Status::OK();
  };
  auto slice = [&](size_t i,
                   tsdata::Dataset decoded) -> Result<tsdata::Dataset> {
    if (i > 0) return decoded;
    return decoded.Slice(decoded.num_rows() - oldest_take,
                         decoded.num_rows());
  };
  tsdata::Dataset out(options_.schema);
  ScanStats stats;
  DBSHERLOCK_RETURN_NOT_OK(ReadPipeline(plan, slice, StitchInto(&out),
                                        /*max_rows=*/0, /*parallelism=*/0,
                                        &stats));
  return out;
}

Result<double> TenantStore::ResolveQuantile(const std::string& attribute,
                                            double q,
                                            QuantileStats* stats) const {
  TRACE_SPAN("store.quantile");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.quantile_us"));
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("quantile fraction must be in [0, 1]");
  }
  auto idx = options_.schema.IndexOf(attribute);
  if (!idx.ok()) {
    return Status::NotFound("quantile on unknown attribute '" + attribute +
                            "'");
  }
  if (options_.schema.attribute(*idx).kind ==
      tsdata::AttributeKind::kCategorical) {
    return Status::InvalidArgument("quantile on categorical attribute '" +
                                   attribute + "'");
  }
  const size_t attr = *idx;

  // The k-th smallest of `total` non-NaN values lies in (lo, hi]. Values
  // <= lo are only counted; the rest are pooled and ranked.
  uint64_t total = 0;
  uint64_t k = 0;
  double lo = -std::numeric_limits<double>::infinity();
  uint64_t known_below = 0;
  std::vector<double> pool;
  auto plan = [&](const std::vector<SegmentInfo>& segments,
                  tsdata::Dataset* active, std::vector<size_t>* decode,
                  ScanStats*) -> Status {
    // The active tail is already in memory: its values are exact.
    std::vector<double> active_vals;
    for (double v : active->column(attr).numeric_values()) {
      if (!std::isnan(v)) active_vals.push_back(v);
    }
    total = active_vals.size();
    for (const SegmentInfo& seg : segments) {
      total += seg.zones.attrs[attr].non_nan_count;
    }
    if (total == 0) {
      return Status::FailedPrecondition("no non-NaN values stored for '" +
                                        attribute + "'");
    }
    k = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
    k = std::clamp<uint64_t>(k, 1, total);

    // Bracket the k-th order statistic. LB(t) counts values certainly
    // <= t (segments whose zone max <= t, plus exact active values);
    // UB(t) counts values possibly <= t (zone min <= t). The k-th value
    // lies in (lo, hi] where lo is the largest candidate with UB < k and
    // hi the smallest with LB >= k.
    std::vector<double> candidates;
    candidates.reserve(2 * segments.size() + active_vals.size());
    for (const SegmentInfo& seg : segments) {
      const AttrZone& zone = seg.zones.attrs[attr];
      if (zone.non_nan_count == 0) continue;
      if (!std::isnan(zone.min)) candidates.push_back(zone.min);
      if (!std::isnan(zone.max)) candidates.push_back(zone.max);
    }
    candidates.insert(candidates.end(), active_vals.begin(),
                      active_vals.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (double t : candidates) {
      uint64_t lb = 0;
      uint64_t ub = 0;
      for (const SegmentInfo& seg : segments) {
        const AttrZone& zone = seg.zones.attrs[attr];
        if (zone.max <= t) lb += zone.non_nan_count;
        if (zone.min <= t) ub += zone.non_nan_count;
      }
      for (double a : active_vals) {
        if (a <= t) {
          ++lb;
          ++ub;
        }
      }
      if (ub < k) lo = t;
      if (lb >= k && t < hi) hi = t;
    }

    // Decode only segments straddling (lo, hi]; fully-below segments
    // contribute their counts, fully-above ones nothing at all.
    known_below = 0;
    pool.clear();
    for (size_t s = 0; s < segments.size(); ++s) {
      const AttrZone& zone = segments[s].zones.attrs[attr];
      if (zone.non_nan_count == 0) continue;
      if (zone.max <= lo) {
        known_below += zone.non_nan_count;
      } else if (zone.min <= hi) {
        decode->push_back(s);
      }
    }
    return Status::OK();
  };
  auto whole = [](size_t, tsdata::Dataset decoded)
      -> Result<tsdata::Dataset> { return decoded; };
  ScanVisitor visitor;
  visitor.on_chunk = [&](const tsdata::Dataset& chunk) {
    for (double v : chunk.column(attr).numeric_values()) {
      if (std::isnan(v)) continue;
      if (v <= lo) {
        ++known_below;
      } else {
        pool.push_back(v);
      }
    }
    return Status::OK();
  };
  ScanStats read;
  DBSHERLOCK_RETURN_NOT_OK(ReadPipeline(plan, whole, visitor,
                                        /*max_rows=*/0, /*parallelism=*/0,
                                        &read));
  if (k <= known_below || pool.size() < k - known_below) {
    return Status::Internal("quantile bracket lost the order statistic ('" +
                            attribute + "', rank " + std::to_string(k) +
                            ")");
  }
  size_t target = static_cast<size_t>(k - known_below) - 1;
  std::nth_element(pool.begin(), pool.begin() + target, pool.end());
  metrics.GetCounter("store.quantile_segments_decoded")
      ->Increment(read.segments_decoded);
  if (stats != nullptr) {
    stats->segments_total = read.segments_total;
    stats->segments_decoded = read.segments_decoded;
    stats->values_total = total;
    stats->rank = k;
  }
  return pool[target];
}

size_t TenantStore::num_segments() const {
  std::shared_lock lock(mu_);
  return segments_.size();
}

uint64_t TenantStore::sealed_rows() const {
  std::shared_lock lock(mu_);
  uint64_t rows = 0;
  for (const SegmentInfo& seg : segments_) rows += seg.rows;
  return rows;
}

uint64_t TenantStore::sealed_bytes() const {
  std::shared_lock lock(mu_);
  uint64_t bytes = 0;
  for (const SegmentInfo& seg : segments_) bytes += seg.bytes;
  return bytes;
}

size_t TenantStore::active_rows() const {
  std::shared_lock lock(mu_);
  return active_.num_rows();
}

uint64_t TenantStore::retention_deletes() const {
  std::shared_lock lock(mu_);
  return retention_deletes_;
}

double TenantStore::compression_ratio() const {
  std::shared_lock lock(mu_);
  if (raw_total_ == 0) return 0.0;
  return static_cast<double>(compressed_total_) /
         static_cast<double>(raw_total_);
}

std::vector<SegmentInfo> TenantStore::Manifest() const {
  std::shared_lock lock(mu_);
  return segments_;
}

std::optional<double> TenantStore::durable_last_ts() const {
  std::shared_lock lock(mu_);
  if (segments_.empty()) return std::nullopt;
  return segments_.back().max_ts;
}

}  // namespace dbsherlock::store
