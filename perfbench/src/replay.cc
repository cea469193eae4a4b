#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "core/anomaly_detector.h"
#include "core/explainer.h"
#include "core/streaming_monitor.h"
#include "fleet/hash_ring.h"
#include "query/compiler.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/report.h"
#include "samples.h"
#include "service/client.h"
#include "service/model_store.h"
#include "service/service.h"
#include "service/wire.h"
#include "store/tenant_store.h"
#include "tsdata/region.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace query = dbsherlock::query;
namespace service = dbsherlock::service;
namespace store = dbsherlock::store;
using dbsherlock::common::JsonValue;
using dbsherlock::common::Result;
using dbsherlock::common::Status;
using dbsherlock::common::StrFormat;

/// Requests each live probe makes.
constexpr size_t kPings = 400;
constexpr size_t kHopRows = 400;
/// Ingest rows replayed per sampled tenant, and tenants sampled.
constexpr size_t kSampleRows = 400;
constexpr size_t kSampleTenants = 4;
/// The service's defaults the replay mirrors.
constexpr double kMinConfidence = 20.0;
constexpr double kRangeContextFactor = 8.0;
constexpr size_t kMaxRangeRows = 500000;

double MedianSpan(const SpanLog& spans, const std::string& name) {
  return Median(spans.Durations(name));
}

std::unique_ptr<service::Client> ConnectOrNull(int port) {
  auto client = service::Client::Connect("127.0.0.1", port);
  return client.ok() ? std::move(*client) : nullptr;
}

/// Row-for-row equality, NaN equal to NaN.
bool SameRows(const tsdata::Dataset& a, const tsdata::Dataset& b,
              std::string* why) {
  if (a.num_rows() != b.num_rows()) {
    *why = StrFormat("%zu rows vs %zu", a.num_rows(), b.num_rows());
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.timestamp(r) != b.timestamp(r)) {
      *why = StrFormat("row %zu timestamp differs", r);
      return false;
    }
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      const tsdata::Column& x = a.column(c);
      const tsdata::Column& y = b.column(c);
      bool same = x.kind() == tsdata::AttributeKind::kNumeric
                      ? (x.numeric(r) == y.numeric(r) ||
                         (std::isnan(x.numeric(r)) && std::isnan(y.numeric(r))))
                      : x.CategoryName(x.code(r)) == y.CategoryName(y.code(r));
      if (!same) {
        *why = StrFormat("row %zu attribute %zu differs", r, c);
        return false;
      }
    }
  }
  return true;
}

/// One shard's store and model WAL, reopened in-process.
struct ShardReplica {
  std::unique_ptr<service::DurableModelStore> models;
  std::unique_ptr<service::Service> service;
  dbsherlock::core::ModelRepository repository;  // snapshot for Rank
};

/// Where a tenant lives once the shards are reopened.
struct TenantView {
  ShardReplica* shard = nullptr;
  const store::TenantStore* history = nullptr;
};

/// Replays one statement through the layers, one span per call.
class StatementReplayer {
 public:
  StatementReplayer(const Inputs& inputs, std::vector<TenantView>* views,
                    SpanLog* spans, ReplayCheck* check, std::mutex* check_mu)
      : inputs_(inputs), views_(*views), spans_(spans), check_(check),
        check_mu_(check_mu) {}

  Status Replay(const Statement& statement) {
    const TenantStream& stream = inputs_.tenants[statement.tenant];
    const TenantView& view = views_[statement.tenant];
    if (view.history == nullptr) {
      return Status::NotFound("no reopened store for " + stream.name);
    }
    uint64_t op = spans_->NewOp();
    std::string line = statement.Line(stream.name);
    if (statement.kind == Statement::Kind::kDiagnoseRange) {
      spans_->Time(op, "service.wire_parse_range", "", [&] {
        return service::ParseRequestLine(line).ok();
      });
      auto json = spans_->Time(op, "service.diagnose_range", "", [&] {
        return view.shard->service->DiagnoseRangeJson(
            stream.name, stream.anomaly.start, stream.anomaly.end);
      });
      if (!json.ok()) return json.status();
      return DiagnoseWindow(op, "service.diagnose_range", view,
                            stream.anomaly, false);
    }

    spans_->Time(op, "service.wire_parse_explainq", "", [&] {
      return service::ParseRequestLine(line).ok();
    });
    auto json = spans_->Time(op, "service.explainq", "", [&] {
      return view.shard->service->ExplainQueryJson(stream.name, statement.text);
    });
    if (!json.ok()) return json.status();

    const std::string& text = statement.text;
    auto ast = spans_->Time(op, "query.parse", "", [&] { return query::Parse(text); });
    if (!ast.ok()) return ast.status();
    query::CompileContext compile_context;
    compile_context.schema = &stream.data.schema();
    compile_context.history = view.history;
    auto compiled = spans_->Time(op, "query.compile", "", [&] {
      return query::Compile(*ast, text, compile_context);
    });
    if (!compiled.ok()) return compiled.status();
    for (const query::CompiledCondition& c : compiled->conditions) {
      if (!c.source.threshold.is_percentile) continue;
      store::QuantileStats stats;
      auto value = spans_->Time(op, "store.quantile", "query.compile", [&] {
        return view.history->ResolveQuantile(
            c.attribute, c.source.threshold.percentile / 100.0, &stats);
      });
      if (!value.ok()) return value.status();
      Count("store.quantile_segments_decoded", stats.segments_decoded);
    }

    query::ExecutionContext exec_context;
    exec_context.schema = &stream.data.schema();
    exec_context.history = view.history;
    exec_context.explainer = &explainer_;
    const dbsherlock::core::ModelRepository& repository = view.shard->repository;
    exec_context.rank = [&](const tsdata::Dataset& window,
                            const tsdata::DiagnosisRegions& regions) {
      return repository.Rank(window, tsdata::SplitRows(window, regions),
                             explainer_.options().predicate_options,
                             kMinConfidence);
    };
    query::ExecutorOptions exec_options;
    exec_options.max_rows = kMaxRangeRows;
    exec_options.range_context_factor = kRangeContextFactor;
    exec_options.detector = explainer_.options().detector_options;
    exec_options.parallelism = explainer_.options().predicate_options.parallelism;
    auto report = spans_->Time(op, "query.execute", "", [&] {
      return query::Execute(*compiled, exec_context, exec_options);
    });
    if (!report.ok()) return report.status();
    spans_->Time(op, "query.render", "", [&] {
      JsonValue out = query::ReportToJson(*report);
      out.as_object()["markdown"] = query::RenderMarkdown(*report);
      return out.as_object().size();
    });

    // The executor's stages, re-run one call at a time on the same bytes.
    if (ast->kind == query::QueryKind::kExplainWhere) {
      store::ScanOptions scan;
      scan.t0 = ast->t0;
      scan.t1 = ast->t1;
      scan.max_rows = kMaxRangeRows;
      for (const query::CompiledCondition& c : compiled->conditions) {
        scan.bounds.push_back(c.bound);
      }
      DBSHERLOCK_RETURN_NOT_OK(Scan(op, "query.execute", view, scan));
    }
    for (const query::RegionFinding& finding : report->findings) {
      DBSHERLOCK_RETURN_NOT_OK(
          DiagnoseWindow(op, "query.execute", view, finding.region, true));
    }
    return Status::OK();
  }

  /// Per-call counts (segments decoded, ...), by metric name; read after
  /// every replay thread has joined.
  const std::map<std::string, std::vector<double>>& counts() const {
    return counts_;
  }

 private:
  void Count(const std::string& name, double value) {
    std::lock_guard lock(*check_mu_);
    counts_[name].push_back(value);
  }

  /// ScanWithOptions with pushdown, checked against the full decode.
  Status Scan(uint64_t op, const std::string& parent, const TenantView& view,
              const store::ScanOptions& options) {
    store::ScanStats stats;
    auto rows = spans_->Time(op, "store.scan", parent, [&] {
      return view.history->ScanWithOptions(options, &stats);
    });
    if (!rows.ok()) return rows.status();
    Count("store.scan_segments_decoded", static_cast<double>(stats.segments_decoded));
    Count("store.scan_segments_total", static_cast<double>(stats.segments_total));
    store::ScanOptions full = options;
    full.prune = false;
    store::ScanStats full_stats;
    auto all = view.history->ScanWithOptions(full, &full_stats);
    if (!all.ok()) return all.status();
    std::string why;
    if (!SameRows(*rows, *all, &why)) {
      std::lock_guard lock(*check_mu_);
      check_->scan_parity = false;
      check_->scan_parity_detail = why;
    }
    return Status::OK();
  }

  /// The diagnosis of one region: context-window scan, then detect (the
  /// EXPLAINQ path only), explain and rank.
  Status DiagnoseWindow(uint64_t op, const std::string& parent,
                        const TenantView& view, const tsdata::TimeRange& region,
                        bool detect) {
    double context = detect ? std::max(region.length() * kRangeContextFactor, 30.0)
                            : region.length() * kRangeContextFactor;
    store::ScanOptions options;
    options.t0 = region.start - context;
    options.t1 = region.end + context;
    options.max_rows = kMaxRangeRows;
    DBSHERLOCK_RETURN_NOT_OK(Scan(op, parent, view, options));
    store::ScanStats stats;
    auto window = view.history->ScanWithOptions(options, &stats);
    if (!window.ok()) return window.status();
    if (detect) {
      spans_->Time(op, "core.detect", parent, [&] {
        return dbsherlock::core::DetectAnomalies(
                   *window, explainer_.options().detector_options)
            .abnormal.ranges()
            .size();
      });
    }
    tsdata::DiagnosisRegions regions;
    regions.abnormal = tsdata::RegionSpec({region});
    spans_->Time(op, "core.explain", parent, [&] {
      return explainer_.Diagnose(*window, regions).predicates.size();
    });
    spans_->Time(op, "core.rank", parent, [&] {
      return view.shard->repository
          .Rank(*window, tsdata::SplitRows(*window, regions),
                explainer_.options().predicate_options, kMinConfidence)
          .size();
    });
    return Status::OK();
  }

  const Inputs& inputs_;
  std::vector<TenantView>& views_;
  SpanLog* spans_;
  ReplayCheck* check_;
  std::mutex* check_mu_;
  const dbsherlock::core::Explainer explainer_;  // the service's defaults
  std::map<std::string, std::vector<double>> counts_;  // guarded by check_mu_
};

/// Ingest layers on a sample of the rows the end-to-end run sent: the wire
/// parse of their APPENDSEQ lines, StreamingMonitor::Append on a monitor
/// hydrated with the rows before them, TenantStore::Append/Seal, and
/// Service::Append then Flush on a scratch service.
Status ReplayIngest(const Inputs& inputs, size_t first_row,
                    const std::string& scratch_dir, SpanLog* spans,
                    LayerMetrics* out) {
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  fs::create_directories(scratch_dir, ec);
  size_t tenants = std::min(kSampleTenants, inputs.tenants.size());
  size_t hydrate = std::min<size_t>(first_row, 600);

  std::vector<double> parse_s, monitor_s, append_s, seal_s;
  for (size_t t = 0; t < tenants; ++t) {
    const TenantStream& stream = inputs.tenants[t];
    const tsdata::Dataset& data = stream.data;
    size_t end = std::min(first_row + kSampleRows, data.num_rows());
    for (size_t r = first_row; r < end; ++r) {
      std::string line = AppendSeqLine(stream.name, data, r, r + 1);
      double start = NowSeconds();
      bool ok = service::ParseRequestLine(line).ok();
      parse_s.push_back(NowSeconds() - start);
      if (!ok) return Status::Internal("recorded APPENDSEQ line does not parse");
    }

    dbsherlock::core::StreamingMonitor::Options monitor_options;
    monitor_options.diagnose_inline = false;  // as the service runs it
    dbsherlock::core::StreamingMonitor monitor(data.schema(), monitor_options);
    DBSHERLOCK_RETURN_NOT_OK(monitor.Hydrate(data.Slice(first_row - hydrate, first_row)));
    double monitor_start = NowSeconds();
    for (size_t r = first_row; r < end; ++r) {
      uint64_t op = spans->NewOp();
      spans->Time(op, "core.monitor_append", "", [&] {
        return monitor.Append(data.timestamp(r), RowCells(data, r)).has_value();
      });
    }
    // Amortized: one row in detect_every pays for a detection pass.
    monitor_s.push_back((NowSeconds() - monitor_start) /
                        static_cast<double>(std::max<size_t>(end - first_row, 1)));

    store::TenantStore::Options store_options;
    store_options.dir = scratch_dir + "/store-" + stream.name;
    store_options.schema = data.schema();
    auto history = store::TenantStore::Open(store_options);
    if (!history.ok()) return history.status();
    for (size_t r = first_row - hydrate; r < end; ++r) {
      size_t segments = (*history)->num_segments();
      uint64_t op = spans->NewOp();
      double start = NowSeconds();
      Status appended = (*history)->Append(data.timestamp(r), RowCells(data, r));
      double took = NowSeconds() - start;
      DBSHERLOCK_RETURN_NOT_OK(appended);
      bool sealed = (*history)->num_segments() != segments;
      spans->Add({op, sealed ? "store.append+seal" : "store.append", "", start, start + took});
      (sealed ? seal_s : append_s).push_back(took);
    }
    uint64_t op = spans->NewOp();
    DBSHERLOCK_RETURN_NOT_OK(spans->Time(op, "store.seal", "", [&] {
      return (*history)->Seal();
    }));
    seal_s.push_back(spans->Durations("store.seal").back());
  }

  // Service::Append and the drain behind it, on a scratch service with the
  // daemon's defaults.
  service::DurableModelStore::Options model_options;  // volatile
  auto models = service::DurableModelStore::Open(model_options);
  if (!models.ok()) return models.status();
  for (const auto& model : inputs.models) DBSHERLOCK_RETURN_NOT_OK((*models)->Add(model));
  service::Service::Options options;
  options.tenants.store.dir = scratch_dir + "/service";
  options.store = models->get();
  std::vector<double> service_append_s;
  double drain_us_per_row = 0;
  {
    service::Service svc(options);
    size_t rows = 0;
    for (size_t t = 0; t < tenants; ++t) {
      DBSHERLOCK_RETURN_NOT_OK(svc.Hello(inputs.tenants[t].name,
                                         inputs.tenants[t].data.schema()));
    }
    double burst_start = NowSeconds();
    for (size_t t = 0; t < tenants; ++t) {
      const TenantStream& stream = inputs.tenants[t];
      size_t end = std::min(first_row + kSampleRows, stream.data.num_rows());
      for (size_t r = first_row - hydrate; r < end; ++r) {
        uint64_t op = spans->NewOp();
        double start = NowSeconds();
        auto outcome = svc.Append(stream.name, stream.data.timestamp(r),
                                  RowCells(stream.data, r), r + 1);
        double took = NowSeconds() - start;
        if (!outcome.ok()) return outcome.status();
        if (!outcome->accepted) return Status::Internal("in-process append shed");
        spans->Add({op, "service.append", "", start, start + took});
        service_append_s.push_back(took);
        ++rows;
      }
    }
    uint64_t op = spans->NewOp();
    DBSHERLOCK_RETURN_NOT_OK(spans->Time(op, "service.flush", "", [&] {
      return svc.FlushAll();
    }));
    drain_us_per_row = (NowSeconds() - burst_start) * 1e6 / static_cast<double>(rows);
  }

  (*out)["service.wire_parse_us"] = Median(parse_s) * 1e6;
  (*out)["core.monitor_append_us"] = Median(monitor_s) * 1e6;
  (*out)["store.append_us"] = Median(append_s) * 1e6;
  (*out)["store.seal_ms"] = Median(seal_s) * 1e3;
  (*out)["service.append_us"] = Median(service_append_s) * 1e6;
  (*out)["service.drain_us_per_row"] = drain_us_per_row;
  return Status::OK();
}

}  // namespace

Status ProbeLiveFleet(const Fleet& fleet, const Inputs& inputs, SpanLog* spans,
                      LayerMetrics* out) {
  // Transport floor: PING answered by a shard's own event loop.
  std::unique_ptr<service::Client> shard = ConnectOrNull(fleet.shard_port(0));
  if (shard == nullptr) return Status::IoError("cannot connect to shard");
  std::vector<double> ping_s;
  for (size_t i = 0; i < kPings; ++i) {
    uint64_t op = spans->NewOp();
    double start = NowSeconds();
    DBSHERLOCK_RETURN_NOT_OK(shard->Ping());
    double end = NowSeconds();
    spans->Add({op, "client.ping", "", start, end});
    ping_s.push_back(end - start);
  }
  (*out)["service.ping_rtt_us"] = Median(ping_s) * 1e6;

  // Router hop: a probe tenant's rows alternate between the router and
  // the shard the ring places it on.
  const std::string probe = "hop-probe";
  const tsdata::Dataset& data = inputs.tenants.front().data;
  dbsherlock::fleet::HashRing ring(fleet.shard_addresses());
  std::unique_ptr<service::Client> router = ConnectOrNull(fleet.router_port());
  std::unique_ptr<service::Client> owner =
      ConnectOrNull(fleet.shard_port(ring.ShardFor(probe)));
  if (router == nullptr || owner == nullptr) {
    return Status::IoError("cannot connect for the router-hop probe");
  }
  DBSHERLOCK_RETURN_NOT_OK(router->Hello(probe, data.schema()));
  std::vector<double> via_router_s, direct_s;
  size_t rows = std::min(kHopRows, data.num_rows());
  for (size_t r = 0; r < rows; ++r) {
    bool via_router = r % 2 == 0;
    service::Client& client = via_router ? *router : *owner;
    std::string line = AppendSeqLine(probe, data, r, r + 1);
    uint64_t op = spans->NewOp();
    for (;;) {
      double start = NowSeconds();
      auto response = client.Call(line);
      double end = NowSeconds();
      if (!response.ok()) return response.status();
      if (response->kind == service::Response::Kind::kErr) return response->error;
      if (response->kind == service::Response::Kind::kOk) {
        spans->Add({op, via_router ? "client.appendseq.router" : "client.appendseq.direct",
                    "", start, end});
        (via_router ? via_router_s : direct_s).push_back(end - start);
        break;
      }
      // Shed: wait out the hint and resend; the sample is not recorded.
      std::this_thread::sleep_for(std::chrono::milliseconds(response->retry_after_ms));
    }
  }
  (*out)["fleet.router_hop_us"] = (Median(via_router_s) - Median(direct_s)) * 1e6;

  // Counters: the router's upstream retries and the shards' scan retries.
  auto stats = router->Stats();
  if (!stats.ok()) return stats.status();
  double upstream_retries = 0, scan_retries = 0;
  if (const JsonValue* r = stats->Find("router")) {
    if (const JsonValue* per_shard = r->Find("per_shard")) {
      for (const auto& [address, entry] : per_shard->as_object()) {
        upstream_retries += entry.GetNumber("retries").ValueOr(0.0);
      }
    }
  }
  if (const JsonValue* shards = stats->Find("shards")) {
    for (const auto& [address, entry] : shards->as_object()) {
      const JsonValue* tenants = entry.Find("tenants");
      if (tenants == nullptr || !tenants->is_object()) continue;
      for (const auto& [name, tenant] : tenants->as_object()) {
        if (const JsonValue* history = tenant.Find("history")) {
          scan_retries += history->GetNumber("scan_retries").ValueOr(0.0);
        }
      }
    }
  }
  (*out)["fleet.upstream_retries"] = upstream_retries;
  (*out)["store.scan_retries"] = scan_retries;
  (void)router->Quit();
  (void)owner->Quit();
  (void)shard->Quit();
  return Status::OK();
}

Result<ReplayCheck> ReplayTraced(const Fleet& fleet, const Inputs& inputs,
                                 size_t first_row, size_t conns, double budget_s,
                                 const std::string& scratch_dir, SpanLog* spans,
                                 LayerMetrics* out) {
  ReplayCheck check;
  std::mutex check_mu;

  // Reopen every shard's model WAL and store directory.
  std::vector<std::unique_ptr<ShardReplica>> shards;
  std::vector<TenantView> views(inputs.tenants.size());
  for (size_t s = 0; s < Fleet::kShards; ++s) {
    auto replica = std::make_unique<ShardReplica>();
    service::DurableModelStore::Options model_options;
    model_options.dir = fleet.wal_dir(s);
    auto models = service::DurableModelStore::Open(model_options);
    if (!models.ok()) return models.status();
    replica->models = std::move(*models);
    replica->repository = replica->models->SnapshotRepository();
    service::Service::Options options;
    options.tenants.store.dir = fleet.store_dir(s);
    options.store = replica->models.get();
    replica->service = std::make_unique<service::Service>(options);
    for (size_t t = 0; t < inputs.tenants.size(); ++t) {
      const TenantStream& stream = inputs.tenants[t];
      if (!fs::exists(fleet.store_dir(s) + "/" + stream.name)) continue;
      DBSHERLOCK_RETURN_NOT_OK(
          replica->service->Hello(stream.name, stream.data.schema()));
      auto tenant = replica->service->tenants().Find(stream.name);
      if (!tenant.ok()) return tenant.status();
      views[t] = {replica.get(), (*tenant)->history.get()};
    }
    shards.push_back(std::move(replica));
  }

  // Statements: the end-to-end run's concurrency, every statement at least
  // once, more passes while the budget lasts.
  StatementReplayer replayer(inputs, &views, spans, &check, &check_mu);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  Status first_error = Status::OK();
  const size_t n = inputs.statements.size();
  const double deadline = NowSeconds() + budget_s;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1);
        if (failed.load() || (i >= n && NowSeconds() >= deadline)) return;
        Status status = replayer.Replay(inputs.statements[i % n]);
        if (!status.ok()) {
          std::lock_guard lock(check_mu);
          if (first_error.ok()) first_error = status;
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  DBSHERLOCK_RETURN_NOT_OK(first_error);
  check.statements = next.load();

  (*out)["service.explainq_ms"] = MedianSpan(*spans, "service.explainq") * 1e3;
  (*out)["service.diagnose_range_ms"] = MedianSpan(*spans, "service.diagnose_range") * 1e3;
  (*out)["service.wire_parse_explainq_us"] =
      MedianSpan(*spans, "service.wire_parse_explainq") * 1e6;
  (*out)["query.parse_us"] = MedianSpan(*spans, "query.parse") * 1e6;
  (*out)["query.compile_ms"] = MedianSpan(*spans, "query.compile") * 1e3;
  (*out)["query.execute_ms"] = MedianSpan(*spans, "query.execute") * 1e3;
  (*out)["query.render_us"] = MedianSpan(*spans, "query.render") * 1e6;
  (*out)["store.quantile_ms"] = MedianSpan(*spans, "store.quantile") * 1e3;
  (*out)["store.scan_ms"] = MedianSpan(*spans, "store.scan") * 1e3;
  (*out)["core.detect_ms"] = MedianSpan(*spans, "core.detect") * 1e3;
  (*out)["core.explain_ms"] = MedianSpan(*spans, "core.explain") * 1e3;
  (*out)["core.rank_ms"] = MedianSpan(*spans, "core.rank") * 1e3;
  for (const auto& [name, values] : replayer.counts()) (*out)[name] = Median(values);
  shards.clear();  // stop the replicas before the ingest replay

  DBSHERLOCK_RETURN_NOT_OK(ReplayIngest(inputs, first_row, scratch_dir, spans, out));
  check.rows = std::min(kSampleTenants, inputs.tenants.size()) * kSampleRows;
  return check;
}

}  // namespace perfbench
