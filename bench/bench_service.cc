// dbsherlockd service benchmark: boots the daemon engine + TCP frontend on
// an ephemeral port and replays N simulated tenants concurrently through
// the real socket path (HELLO / APPEND with retry-on-backpressure / FLUSH /
// DIAGNOSES), each streaming one generated dataset with an injected
// anomaly. Reports ingest throughput, per-append wire latency (mean/p99),
// shed rate, diagnosis throughput, and per-tenant top-1 correctness, and
// optionally writes the whole report as JSON (BENCH_service.json).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "eval/service_replay.h"
#include "fleet/fleet_replay.h"
#include "fleet/router.h"
#include "service/server.h"

namespace {

using namespace dbsherlock;

/// One fleet scaling point: S in-process shards (epoll servers over real
/// Services), a consistent-hash router in front, and a many-tenant
/// APPENDSEQ replay through the router. Per-row drain work
/// (`delay_us` per appended row, one ingest worker per shard) makes the
/// shard the bottleneck, so rows/sec measures how well the router spreads
/// tenants — the number the acceptance bound (4 shards >= 3x 1 shard)
/// reads. The small queue bound keeps every point under RETRY_AFTER
/// overload so p99 append includes real backpressure waits.
struct FleetBenchConfig {
  size_t tenants = 1000;
  size_t rows_per_tenant = 10;
  size_t attributes = 4;
  size_t client_threads = 32;
  size_t queue_capacity = 8;
  int delay_us = 5000;
  int retry_after_ms = 20;
};

struct FleetPoint {
  size_t shards = 0;
  fleet::FleetReplayResult replay;
};

common::Result<fleet::FleetReplayResult> RunFleetPoint(
    const FleetBenchConfig& config, size_t num_shards) {
  std::vector<std::unique_ptr<service::DurableModelStore>> stores;
  std::vector<std::unique_ptr<service::Service>> services;
  std::vector<std::unique_ptr<service::Server>> servers;
  std::vector<std::string> addresses;
  for (size_t s = 0; s < num_shards; ++s) {
    auto store = service::DurableModelStore::Open({});  // volatile
    if (!store.ok()) return store.status();
    stores.push_back(std::move(*store));

    service::Service::Options options;
    options.tenants.max_tenants = config.tenants + 8;
    options.queue_capacity = config.queue_capacity;
    options.ingest_workers = 1;
    options.process_delay_us = config.delay_us;
    options.retry_after_ms = config.retry_after_ms;
    options.store = stores.back().get();
    services.push_back(std::make_unique<service::Service>(options));

    service::Server::Options server_options;
    server_options.port = 0;
    server_options.handler_threads = 2;
    server_options.max_connections = config.client_threads + 16;
    server_options.service = services.back().get();
    auto server = service::Server::Start(server_options);
    if (!server.ok()) return server.status();
    servers.push_back(std::move(*server));
    addresses.push_back(
        common::StrFormat("127.0.0.1:%d", servers.back()->port()));
  }

  fleet::Router::Options router_options;
  router_options.port = 0;
  router_options.shards = addresses;
  router_options.handler_threads = config.client_threads;
  router_options.max_connections = config.client_threads + 16;
  auto router = fleet::Router::Start(std::move(router_options));
  if (!router.ok()) return router.status();

  fleet::FleetReplayOptions replay_options;
  replay_options.port = (*router)->port();
  replay_options.tenants = config.tenants;
  replay_options.rows_per_tenant = config.rows_per_tenant;
  replay_options.attributes = config.attributes;
  replay_options.client_threads = config.client_threads;
  auto result = fleet::RunFleetReplay(replay_options);

  // Placement sanity: a skewed ring would fake poor scaling.
  for (const auto& stats : (*router)->shard_stats()) {
    std::fprintf(stderr, "  [shard %s] %llu request(s), %llu retrie(s)\n",
                 stats.address.c_str(),
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.retries));
  }

  (*router)->Stop();
  for (auto& server : servers) server->Stop();
  for (auto& service : services) service->Stop();
  return result;
}

common::JsonValue FleetPointJson(const FleetBenchConfig& config,
                                 const FleetPoint& point) {
  common::JsonValue::Object out;
  out["shards"] = static_cast<double>(point.shards);
  out["tenants"] = static_cast<double>(config.tenants);
  out["rows_per_tenant"] = static_cast<double>(config.rows_per_tenant);
  out["rows_acked"] = static_cast<double>(point.replay.rows_acked);
  out["rows_failed"] = static_cast<double>(point.replay.rows_failed);
  out["retries"] = static_cast<double>(point.replay.retries);
  out["wall_seconds"] = point.replay.wall_seconds;
  out["rows_per_sec"] = point.replay.rows_per_sec;
  out["p50_append_ms"] = point.replay.p50_append_ms;
  out["p99_append_ms"] = point.replay.p99_append_ms;
  out["max_append_ms"] = point.replay.max_append_ms;
  return common::JsonValue(std::move(out));
}

/// Runs the sweep, prints the scaling table, and returns the points
/// (empty on error, which is printed).
std::vector<FleetPoint> RunFleetSweep(const FleetBenchConfig& config,
                                      const std::vector<size_t>& shard_counts) {
  bench::TablePrinter table({"Shards", "Rows/sec", "Speedup", "p50 ms",
                             "p99 ms", "Retries", "Acked"},
                            {7, 12, 8, 9, 9, 9, 9});
  table.PrintHeader();
  std::vector<FleetPoint> points;
  double base = 0.0;
  for (size_t shards : shard_counts) {
    auto replay = RunFleetPoint(config, shards);
    if (!replay.ok()) {
      std::fprintf(stderr, "fleet point (%zu shards) failed: %s\n", shards,
                   replay.status().ToString().c_str());
      return {};
    }
    if (base == 0.0) base = replay->rows_per_sec;
    table.PrintRow({std::to_string(shards), bench::Num(replay->rows_per_sec, 0),
                    bench::Num(base > 0 ? replay->rows_per_sec / base : 0, 2),
                    bench::Num(replay->p50_append_ms, 2),
                    bench::Num(replay->p99_append_ms, 2),
                    std::to_string(replay->retries),
                    std::to_string(replay->rows_acked)});
    points.push_back(FleetPoint{shards, std::move(*replay)});
  }
  return points;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int64_t tenants = flags.Int("tenants", 8, "concurrent simulated tenants");
  int64_t seed = flags.Int("seed", 20260805, "dataset generation seed");
  int64_t queue_capacity =
      flags.Int("queue_capacity", 1024, "per-tenant ingest queue bound");
  int64_t ingest_workers = flags.Int("ingest_workers", 4, "drain threads");
  int64_t diagnosis_workers =
      flags.Int("diagnosis_workers", 2, "diagnosis threads");
  double normal_sec = flags.Double(
      "normal_sec", 300.0, "seconds of normal telemetry per tenant");
  double anomaly_sec =
      flags.Double("anomaly_sec", 40.0, "injected anomaly duration");
  std::string wal_dir = flags.String(
      "wal_dir", "", "model store directory (empty = volatile store)");
  std::string json_out = flags.String(
      "json_out", "", "write the report as JSON to this path");
  int64_t fleet_single = flags.Int(
      "shards", 0,
      "run ONLY the sharded-fleet replay with this many shards (router + "
      "epoll shards in-process); 0 = normal single-daemon replay");
  std::string fleet_shards = flags.String(
      "fleet_shards", "",
      "after the normal replay, run the fleet scaling sweep at these "
      "shard counts (e.g. 1,2,4) and embed it in the JSON report");
  int64_t fleet_tenants =
      flags.Int("fleet_tenants", 1000, "tenants in the fleet replay");
  int64_t fleet_rows = flags.Int("fleet_rows", 10,
                                 "APPENDSEQ rows per tenant (fleet replay)");
  int64_t fleet_clients =
      flags.Int("fleet_clients", 32, "fleet replay client connections");
  int64_t fleet_delay_us = flags.Int(
      "fleet_delay_us", 5000,
      "artificial per-row drain work on each shard (1 ingest worker), so "
      "rows/sec measures shard-count scaling");
  int64_t fleet_retry_after_ms = flags.Int(
      "fleet_retry_after_ms", 20,
      "shard backpressure hint; larger = fewer retry round-trips");
  int64_t fleet_queue = flags.Int(
      "fleet_queue", 8,
      "per-tenant queue bound in the fleet replay (small = overload, so "
      "p99 append includes RETRY_AFTER waits)");
  flags.Validate();

  FleetBenchConfig fleet_config;
  fleet_config.tenants = static_cast<size_t>(fleet_tenants);
  fleet_config.rows_per_tenant = static_cast<size_t>(fleet_rows);
  fleet_config.client_threads = static_cast<size_t>(fleet_clients);
  fleet_config.queue_capacity = static_cast<size_t>(fleet_queue);
  fleet_config.delay_us = static_cast<int>(fleet_delay_us);
  fleet_config.retry_after_ms = static_cast<int>(fleet_retry_after_ms);

  if (fleet_single > 0) {
    bench::PrintBanner(
        "Fleet replay", "dbsherlockd route + shards",
        "Many tenants streaming APPENDSEQ through the consistent-hash "
        "router; rows/sec scaling and append latency under overload.");
    std::vector<FleetPoint> points = RunFleetSweep(
        fleet_config, {static_cast<size_t>(fleet_single)});
    if (points.empty()) return 1;
    if (!json_out.empty()) {
      std::ofstream out(json_out);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
        return 1;
      }
      common::JsonValue::Object report;
      report["mode"] = std::string("fleet");
      common::JsonValue::Array array;
      for (const FleetPoint& p : points)
        array.push_back(FleetPointJson(fleet_config, p));
      report["fleet"] = common::JsonValue(std::move(array));
      report["build_info"] = bench::BuildInfoJson();
      out << common::JsonValue(std::move(report)).Dump(2) << "\n";
      std::printf("wrote %s\n", json_out.c_str());
    }
    return points.back().replay.rows_failed == 0 ? 0 : 1;
  }

  bench::PrintBanner(
      "Service replay", "dbsherlockd end-to-end",
      "N tenants streaming over the socket path; throughput, append "
      "latency, backpressure, and diagnosis correctness.");

  eval::ServiceReplayOptions options;
  options.num_tenants = static_cast<size_t>(tenants);
  options.gen.seed = static_cast<uint64_t>(seed);
  options.gen.normal_duration_sec = normal_sec;
  options.anomaly_duration_sec = anomaly_sec;
  options.service.queue_capacity = static_cast<size_t>(queue_capacity);
  options.service.ingest_workers = static_cast<size_t>(ingest_workers);
  options.service.diagnosis_workers = static_cast<size_t>(diagnosis_workers);

  service::DurableModelStore::Options store_options;
  store_options.dir = wal_dir;
  auto store = service::DurableModelStore::Open(store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  auto result = eval::RunServiceReplay(options, store->get());
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  bench::TablePrinter table(
      {"Tenant", "Expected", "Top cause", "Top-1", "Overlap", "Rows",
       "Retries"},
      {10, 22, 22, 7, 9, 8, 9});
  table.PrintHeader();
  for (const eval::TenantReplayOutcome& t : result->tenants) {
    table.PrintRow({t.tenant, t.expected_cause, t.top_cause,
                    t.top1_correct ? "yes" : "NO",
                    t.region_overlaps ? "yes" : "NO",
                    std::to_string(t.rows_sent),
                    std::to_string(t.retries)});
  }
  std::printf(
      "\nrows/sec %.0f   append mean %.1f us   p99 %.1f us   shed rate "
      "%.4f\n",
      result->rows_per_sec, result->mean_append_us, result->p99_append_us,
      result->shed_rate);
  std::printf("diagnoses %zu (%.2f/sec)   models stored %zu   wall %.2f s\n",
              result->diagnoses_total, result->diagnoses_per_sec,
              result->models_stored, result->wall_sec);
  std::printf("all tenants correct: %s\n",
              result->AllCorrect() ? "yes" : "NO");

  std::vector<FleetPoint> fleet_points;
  bool fleet_ok = true;
  if (!fleet_shards.empty()) {
    std::printf("\nFleet scaling sweep (%lld tenants, %lld rows/tenant, "
                "%lld us/row drain):\n",
                static_cast<long long>(fleet_tenants),
                static_cast<long long>(fleet_rows),
                static_cast<long long>(fleet_delay_us));
    std::vector<size_t> counts;
    for (const std::string& field : common::Split(fleet_shards, ',')) {
      auto n = common::ParseInt64(field);
      if (!n.ok() || *n <= 0) {
        std::fprintf(stderr, "--fleet_shards: bad count '%s'\n",
                     field.c_str());
        return 2;
      }
      counts.push_back(static_cast<size_t>(*n));
    }
    fleet_points = RunFleetSweep(fleet_config, counts);
    fleet_ok = !fleet_points.empty();
    for (const FleetPoint& p : fleet_points) {
      if (p.replay.rows_failed != 0) fleet_ok = false;
    }
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
    common::JsonValue report = result->ToJson();
    if (!fleet_points.empty()) {
      common::JsonValue::Array array;
      for (const FleetPoint& p : fleet_points)
        array.push_back(FleetPointJson(fleet_config, p));
      report.as_object()["fleet"] = common::JsonValue(std::move(array));
    }
    report.as_object()["build_info"] = bench::BuildInfoJson();
    out << report.Dump(2) << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return result->AllCorrect() && fleet_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
