// perfbench: end-to-end and per-layer benchmark of a dbsherlockd fleet.
//
//   perfbench --workload ingest|explain|mixed --seed N --seconds S
//             --trace 0|1 --daemon <dbsherlockd> --workdir <dir>
//
// Starts `dbsherlockd route` in front of two `dbsherlockd serve` shards,
// drives them over service::Client with inputs generated from --seed,
// checks the answers, and prints one JSON object as the last line of
// stdout. With --trace 1 it then stops the daemons and replays the same
// statements and rows through the layers in-process (replay.h) to report
// the per-layer metrics and the ledger. run.py builds and invokes it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "daemons.h"
#include "drive.h"
#include "fleet/hash_ring.h"
#include "inputs.h"
#include "replay.h"
#include "samples.h"
#include "service/client.h"
#include "spans.h"
#include "store/tenant_store.h"

namespace perfbench {
namespace {

using dbsherlock::common::JsonValue;
using dbsherlock::common::Status;
using dbsherlock::common::StrFormat;

/// Load-generator shape: at most 4 threads and 4 connections (nproc = 4).
constexpr size_t kConns = 4;
constexpr size_t kMixedAppendConns = 3;
constexpr size_t kMixedQueryConns = 1;
/// Offered APPENDSEQ rate of the mixed workload's open loop, rows/s: about
/// half of what the ingest workload's closed loop acks on the build that
/// defined the benchmark. A constant, never derived at run time.
constexpr double kMixedOfferedRowsPerSec = 1000.0;
/// Complete set-ups per run, setup_s being their median: at least
/// kMinSetupRuns, and more while they take under kSetupBudgetSec in all,
/// since a short set-up is the noisier one.
constexpr size_t kMinSetupRuns = 3;
constexpr size_t kMaxSetupRuns = 9;
constexpr double kSetupBudgetSec = 2.0;
/// After its timed appends, the ingest workload runs every statement this
/// many times: a count, not a time, so every run samples the same
/// statements.
constexpr size_t kIngestQueryPasses = 2;
/// The ingest statements read the first this many rows of each stream
/// (more when the timed appends sent more): room for the whole context
/// window of every anomaly, so their cost does not follow throughput.
constexpr size_t kIngestQueryHistoryRows = 760;
/// Ingest closed-loop warm-up: long enough for the tenant queues to fill,
/// so the timed window sees the drain-bound steady state.
constexpr double kIngestWarmupSec = 3.0;
/// The explain workload's anomaly tail: a closed loop like ingest's over
/// fewer tenants, with a shorter warm-up and timed window.
constexpr double kTailWarmupSec = 1.0;
constexpr double kTailSeconds = 5.0;
/// Sizes the ingest streams so the closed loop cannot run dry below this
/// many acked rows per second.
constexpr double kIngestRowsPerSecCeiling = 10000.0;
/// Diagnosis-quality floors; a run below one fails. The models a seed
/// teaches (two training sets per class) confuse some classes on some
/// seeds, every tenant of the class at once: Lock Contention for Network
/// Congestion, and Poor Physical Design, Flush Log/Table, Table Restore or
/// CPU Saturation for I/O Saturation. Over the ~50 seeds the benchmark was
/// proven on, the build that defined it scored ingest top1_accuracy 0.71 to
/// 1.0 and explain marked-region share 0.83 to 1.0; the floors leave room
/// for one more confused class.
constexpr double kIngestTop1Floor = 0.6;
constexpr double kExplainMarkedFloor = 0.6;
/// Robust latency tails (samples.h, WindowedSummary): the append tail per
/// window of this many seconds holding at least kMinWindowSamples rows,
/// the EXPLAINQ tail per kQueryWindowSec window holding a fifth of that;
/// each reported as the median over windows, so a stall in one second of a
/// run does not decide the run's figure.
constexpr double kLatencyWindowSec = 1.0;
constexpr size_t kMinWindowSamples = 500;
constexpr double kQueryWindowSec = 2.0;
/// Traced run: seconds of statement replay after the first full pass, and
/// where the ingest workload's replayed row sample starts (rows before it
/// hydrate the replayed monitor).
constexpr double kReplayBudgetSec = 3.0;
constexpr size_t kIngestSampleFirstRow = 200;
/// QUERY responses are capped at 5000 rows; count a tenant's rows in
/// windows narrower than that (rows are one second apart).
constexpr double kCountWindowSec = 4000.0;

/// End-to-end metrics printed every run but left out of the result's
/// metrics, and so of BENCHMARK.json, because on the 4-core host that
/// defined the benchmark their spread over ten seeds (interquartile range
/// over median) reached past the 0.25 bound a metric may have on some
/// batches of runs: diagnosis_lag_ms 0.27-0.57 (runs of one seed ranged
/// over ±30%: the order in which 24-48 tenant queues drain one after
/// another), append_p50_ms 0.44 on ingest (a closed loop's median ack moves
/// with the throughput the host gives it), diagnose_range_p50_ms 0.23-0.47
/// on ingest (a 5 ms call that four connections run at once).
constexpr const char* kReportedOnly[] = {"diagnosis_lag_ms", "append_p50_ms",
                                         "diagnose_range_p50_ms"};

/// Every per-layer metric a traced run reports (BENCHMARK.json per_layer).
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kPerLayer[] = {
    {"fleet.router_hop_us", "us"},
    {"fleet.placement_skew", "ratio"},
    {"fleet.upstream_retries", "count"},
    {"service.ping_rtt_us", "us"},
    {"service.wire_parse_us", "us"},
    {"service.append_us", "us"},
    {"service.drain_us_per_row", "us"},
    {"service.shed_ratio", "ratio"},
    {"service.explainq_ms", "ms"},
    {"service.diagnose_range_ms", "ms"},
    {"core.monitor_append_us", "us"},
    {"core.detect_ms", "ms"},
    {"core.explain_ms", "ms"},
    {"core.rank_ms", "ms"},
    {"store.append_us", "us"},
    {"store.seal_ms", "ms"},
    {"store.scan_ms", "ms"},
    {"store.scan_segments_decoded", "count"},
    {"store.scan_segments_total", "count"},
    {"store.quantile_ms", "ms"},
    {"store.quantile_segments_decoded", "count"},
    {"store.scan_retries", "count"},
    {"query.parse_us", "us"},
    {"query.compile_ms", "ms"},
    {"query.execute_ms", "ms"},
    {"query.render_us", "us"},
    {"ledger.explainq_coverage", "ratio"},
    {"ledger.append_coverage", "ratio"},
    {"ledger.trace_overhead", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string workdir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|explain|mixed "
               "--seed N --seconds S --trace 0|1 --daemon PATH --workdir DIR\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "ingest" && args.workload != "explain" &&
      args.workload != "mixed") {
    Usage("--workload must be ingest, explain or mixed");
  }
  if (!(args.seconds > 0) || args.daemon.empty() || args.workdir.empty()) {
    Usage("--seconds, --daemon and --workdir are required");
  }
  return args;
}

/// Tenant streams per workload. Ingest streams start empty and are long
/// enough that the closed loop never runs dry. Explain and mixed tenants
/// get `preload_rows` of history written into their shard's store before
/// HELLO (six sealed segments each on explain), then stream `tail_rows`
/// holding the anomaly through the fleet; mixed streams go on with the
/// rows its open loop offers.
struct Plan {
  StreamShape shape;
  std::string prefix;
  size_t preload_rows = 0;
  size_t tail_rows = 0;
};

Plan MakePlan(const Args& args) {
  Plan plan;
  if (args.workload == "ingest") {
    plan.prefix = "ing";
    plan.shape.tenants = 48;
    plan.shape.rows = static_cast<size_t>(
        std::ceil(kIngestRowsPerSecCeiling * (kIngestWarmupSec + args.seconds) /
                  static_cast<double>(plan.shape.tenants)));
    plan.shape.anomaly_first_sec = 330;
    plan.shape.anomaly_last_sec = 370;
    return plan;
  }
  if (args.workload == "explain") {
    // More than the timed tail sends, with room for the top-up before the
    // lag is measured (see Run).
    plan.tail_rows = 800;
    plan.prefix = "exp";
    plan.shape.tenants = 24;
    plan.preload_rows = 3072;
    plan.shape.rows = plan.preload_rows + plan.tail_rows;
    plan.shape.anomaly_first_sec = static_cast<double>(plan.preload_rows) + 150;
    plan.shape.anomaly_last_sec = static_cast<double>(plan.preload_rows) + 200;
  } else {
    plan.tail_rows = 400;
    plan.prefix = "mix";
    plan.shape.tenants = 24;
    plan.preload_rows = 2048;
    plan.shape.rows =
        plan.preload_rows + plan.tail_rows +
        static_cast<size_t>(std::ceil(1.3 * kMixedOfferedRowsPerSec * args.seconds /
                                      static_cast<double>(plan.shape.tenants)));
    plan.shape.anomaly_first_sec = static_cast<double>(plan.preload_rows) + 250;
    plan.shape.anomaly_last_sec = static_cast<double>(plan.preload_rows) + 300;
  }
  return plan;
}

/// Writes the first `rows` of every stream into the store directory of the
/// shard the router's ring will place the tenant on, as a shard's own
/// drain would have sealed them. Runs before the tenant's HELLO, which
/// opens (and recovers) that directory.
Status PreloadHistory(const Fleet& fleet, const Inputs& inputs, size_t rows) {
  dbsherlock::fleet::HashRing ring(fleet.shard_addresses());
  std::vector<Status> results = dbsherlock::common::ParallelMap(
      inputs.tenants.size(), [&](size_t t) -> Status {
        const TenantStream& stream = inputs.tenants[t];
        std::string root = fleet.store_dir(ring.ShardFor(stream.name));
        std::error_code ec;
        std::filesystem::create_directories(root, ec);
        dbsherlock::store::TenantStore::Options options;
        options.dir = root + "/" + stream.name;
        options.schema = stream.data.schema();
        auto store = dbsherlock::store::TenantStore::Open(options);
        if (!store.ok()) return store.status();
        for (size_t r = 0; r < rows; ++r) {
          DBSHERLOCK_RETURN_NOT_OK((*store)->Append(
              stream.data.timestamp(r), RowCells(stream.data, r)));
        }
        return (*store)->Seal();
      });
  for (const Status& status : results) DBSHERLOCK_RETURN_NOT_OK(status);
  return Status::OK();
}

Status TeachShards(const Fleet& fleet, const Inputs& inputs) {
  // TEACH through the router lands on one shard by cause hash; teaching
  // every shard directly gives each the whole corpus.
  for (size_t s = 0; s < Fleet::kShards; ++s) {
    auto client = dbsherlock::service::Client::Connect("127.0.0.1",
                                                       fleet.shard_port(s));
    if (!client.ok()) return client.status();
    for (const auto& model : inputs.models) {
      DBSHERLOCK_RETURN_NOT_OK((*client)->Teach(model));
    }
    (void)(*client)->Quit();
  }
  return Status::OK();
}

/// Every acked row must have landed: per tenant, the shards' STATS
/// `processed` equals what the benchmark saw acknowledged, and a QUERY row
/// count equals that plus the preloaded history.
Status CheckAckedRowsLanded(int router_port, const Inputs& inputs,
                            const LoadGenerator& load, uint64_t* attempted) {
  auto client = dbsherlock::service::Client::Connect("127.0.0.1", router_port);
  if (!client.ok()) return client.status();
  ++*attempted;
  auto stats = (*client)->Stats();
  if (!stats.ok()) return stats.status();
  std::map<std::string, double> processed = ProcessedRows(*stats);
  for (size_t t = 0; t < inputs.tenants.size(); ++t) {
    const TenantStream& stream = inputs.tenants[t];
    double acked = static_cast<double>(load.acked()[t]);
    if (processed[stream.name] != acked) {
      return Status::Internal(StrFormat(
          "%s: shard processed %.0f rows, %.0f were acked",
          stream.name.c_str(), processed[stream.name], acked));
    }
    double counted = 0;
    double end = stream.data.num_rows() > 0
                     ? stream.data.timestamp(stream.data.num_rows() - 1) + 1
                     : 0;
    for (double t0 = 0; t0 < end; t0 += kCountWindowSec) {
      ++*attempted;
      auto rows = (*client)->Query(stream.name, t0, t0 + kCountWindowSec);
      if (!rows.ok()) return rows.status();
      counted += rows->GetNumber("rows").ValueOr(-1);
    }
    double stored = acked + static_cast<double>(load.preloaded());
    if (counted != stored) {
      return Status::Internal(StrFormat(
          "%s: QUERY counts %.0f rows, %.0f were acked after %zu preloaded",
          stream.name.c_str(), counted, acked, load.preloaded()));
    }
  }
  (void)(*client)->Quit();
  return Status::OK();
}

/// Max over mean tenants per shard, from the ring the router builds.
double PlacementSkew(const Fleet& fleet, const Inputs& inputs) {
  dbsherlock::fleet::HashRing ring(fleet.shard_addresses());
  std::vector<double> per_shard(ring.num_shards(), 0.0);
  for (const TenantStream& stream : inputs.tenants) {
    per_shard[ring.ShardFor(stream.name)] += 1;
  }
  double mean = static_cast<double>(inputs.tenants.size()) /
                static_cast<double>(per_shard.size());
  return *std::max_element(per_shard.begin(), per_shard.end()) / mean;
}

JsonValue SummaryJson(const Summary& s, double scale) {
  JsonValue::Object out;
  out["count"] = static_cast<double>(s.count);
  out["median"] = s.median * scale;
  out["tail_percentile"] = s.tail_percentile;
  out["tail"] = s.tail * scale;
  return JsonValue(std::move(out));
}

struct Metric {
  double value;
  const char* unit;
};

int Run(const Args& args) {
  if (std::string(dbsherlock::bench::BuildType()) != "release") {
    std::fprintf(stderr, "perfbench: refusing to measure a debug build\n");
    return 2;
  }
  const Plan plan = MakePlan(args);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  double prep_start = NowSeconds();
  const Inputs inputs = MakeInputs(plan.shape, plan.prefix, args.seed);
  std::printf("inputs: %zu tenants x %zu rows, %zu models, %zu statements (%.1fs)\n",
              inputs.tenants.size(), plan.shape.rows, inputs.models.size(),
              inputs.statements.size(), NowSeconds() - prep_start);

  // Set-up: start daemons, teach every shard, preload, HELLO every tenant.
  // Repeated from empty directories; the last fleet is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  const std::string fleet_dir = args.workdir + "/fleet";
  const double setup_start = NowSeconds();
  while (setup_s.size() < kMinSetupRuns ||
         (setup_s.size() < kMaxSetupRuns &&
          NowSeconds() - setup_start < kSetupBudgetSec)) {
    if (fleet != nullptr) {
      Status stopped = fleet->Stop();
      fleet.reset();
      if (!stopped.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", stopped.ToString().c_str());
        return 1;
      }
    }
    double start = NowSeconds();
    auto started = Fleet::Start(args.daemon, fleet_dir);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", started.status().ToString().c_str());
      return 1;
    }
    fleet = std::move(*started);
    Status taught = TeachShards(*fleet, inputs);
    if (taught.ok() && plan.preload_rows > 0) {
      taught = PreloadHistory(*fleet, inputs, plan.preload_rows);
    }
    LoadGenerator greeter(inputs, fleet->router_port(), nullptr, args.seed);
    if (taught.ok()) taught = greeter.HelloAll();
    if (!taught.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", taught.ToString().c_str());
      return 1;
    }
    setup_s.push_back(NowSeconds() - start);
  }

  SpanLog spans;
  LoadGenerator load(inputs, fleet->router_port(), args.trace ? &spans : nullptr,
                args.seed);
  AppendResult appends;
  QueryResult queries;
  FlushResult flush;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string loop;
  double e2e_start = NowSeconds();
  load.SetPreloaded(plan.preload_rows);
  const size_t all_rows = std::numeric_limits<size_t>::max();
  const double no_deadline = std::numeric_limits<double>::infinity();
  // Every workload measures diagnosis_lag_ms the same way: after its timed
  // appends, each tenant's queue is topped up until it sheds, then the lag
  // runs from each tenant's last ack until its FLUSH returns.
  auto measure_lag = [&](size_t until_row) {
    AppendResult topped = load.TopUpQueues(kConns, until_row);
    attempted += topped.attempted;
    failed += topped.failed;
    return load.FlushAndCheck(kConns);
  };
  // Before queries, the streams are sent untimed up to `rows` (when the
  // timed phases stopped short of it), so the history the statements read
  // is the same on every run of a seed; the online diagnoses are taken
  // after that, over the whole stream.
  auto complete_history = [&](size_t rows) {
    AppendResult rest = load.AppendClosed(kConns, rows, 0, no_deadline);
    FlushResult drained = load.FlushAndCheck(kConns);
    attempted += rest.attempted + drained.attempted;
    failed += rest.failed + drained.failed;
    flush.tenants_correct = drained.tenants_correct;
    flush.misses = drained.misses;
  };
  if (args.workload == "ingest") {
    loop = StrFormat("closed loop, 4 APPENDSEQ connections (%.0f s warm-up, "
                     "then timed), then every EXPLAINQ and DIAGNOSE_RANGE "
                     "statement %zu times on 4 connections",
                     kIngestWarmupSec, kIngestQueryPasses);
    double measure_from = NowSeconds() + kIngestWarmupSec;
    appends = load.AppendClosed(kConns, all_rows, measure_from,
                                  measure_from + args.seconds);
    flush = measure_lag(all_rows);
    complete_history(kIngestQueryHistoryRows);
    queries = load.Queries(kConns, no_deadline, kIngestQueryPasses);
  } else if (args.workload == "explain") {
    loop = StrFormat("anomaly tail: closed loop, 4 APPENDSEQ connections (%.0f s "
                     "warm-up, %.0f s timed); timed: closed loop, 4 "
                     "EXPLAINQ/DIAGNOSE_RANGE connections",
                     kTailWarmupSec, kTailSeconds);
    double measure_from = NowSeconds() + kTailWarmupSec;
    size_t history_rows = plan.preload_rows + plan.tail_rows;
    appends = load.AppendClosed(kConns, history_rows, measure_from,
                                  measure_from + kTailSeconds);
    flush = measure_lag(history_rows);
    complete_history(history_rows);
    queries = load.Queries(kConns, NowSeconds() + args.seconds);
  } else {
    loop = StrFormat("anomaly tail: closed loop, 4 APPENDSEQ connections; "
                     "timed: open loop, 3 APPENDSEQ connections at %.0f rows/s "
                     "+ closed loop, 1 EXPLAINQ/DIAGNOSE_RANGE connection",
                     kMixedOfferedRowsPerSec);
    AppendResult tail = load.AppendClosed(kConns, plan.preload_rows + plan.tail_rows,
                                            0, no_deadline);
    FlushResult drained = load.FlushAndCheck(kConns);
    attempted += tail.attempted + drained.attempted;
    failed += tail.failed + drained.failed;
    double deadline = NowSeconds() + args.seconds;
    std::thread reader([&] { queries = load.Queries(kMixedQueryConns, deadline); });
    appends = load.AppendOpen(kMixedAppendConns, kMixedOfferedRowsPerSec, all_rows,
                                deadline);
    reader.join();
    flush = measure_lag(all_rows);
  }
  double e2e_s = NowSeconds() - e2e_start;
  attempted += appends.attempted + queries.attempted + flush.attempted;
  failed += appends.failed + queries.failed + flush.failed;

  // --- Correctness gates --------------------------------------------------
  std::vector<std::string> gate_failures;
  std::vector<std::string> report_misses;
  double top1 = static_cast<double>(flush.tenants_correct) /
                static_cast<double>(inputs.tenants.size());
  if (args.workload == "ingest" && top1 < kIngestTop1Floor) {
    gate_failures.push_back(StrFormat("top1_accuracy %.4f below the floor %.4f",
                                      top1, kIngestTop1Floor));
  }
  for (const std::string& miss : flush.misses) {
    std::printf("diagnosis miss: %s\n", miss.c_str());
  }
  Status landed = CheckAckedRowsLanded(fleet->router_port(), inputs, load, &attempted);
  if (!landed.ok()) gate_failures.push_back("acked rows: " + landed.ToString());
  // Explain reports. On the explain workload the history does not change
  // while it is queried, so a statement must get the same top cause every
  // time it runs; and the share of tenants whose reports over the marked
  // anomaly (EXPLAIN REGION and DIAGNOSE_RANGE) all rank the injected
  // cause first must stay at the parent's floor. The causal models confuse
  // some classes on some seeds (see kExplainMarkedFloor), and a WHERE
  // statement diagnoses whatever region its threshold discovers, so single
  // misses are reported, not gated.
  uint64_t wrong_reports = 0;
  std::vector<bool> marked_right(inputs.tenants.size(), true);
  for (size_t i = 0; i < inputs.statements.size(); ++i) {
    const Statement& statement = inputs.statements[i];
    const TenantStream& stream = inputs.tenants[statement.tenant];
    bool marked = statement.label.rfind("where", 0) != 0;
    if (marked && queries.right[i] + queries.wrong[i] == 0) {
      marked_right[statement.tenant] = false;  // never answered
    }
    if (queries.wrong[i] == 0) continue;
    wrong_reports += queries.wrong[i];
    if (marked) marked_right[statement.tenant] = false;
    if (args.workload == "explain" && queries.right[i] > 0) {
      gate_failures.push_back(StrFormat("%s: the top cause changed between runs",
                                        statement.Line(stream.name).c_str()));
    }
    report_misses.push_back(StrFormat(
        "%s [%s]: top cause %s, injected %s", statement.Line(stream.name).c_str(),
        statement.label.c_str(), queries.wrong_example[i].c_str(),
        stream.cause.c_str()));
  }
  double marked_share =
      static_cast<double>(std::count(marked_right.begin(), marked_right.end(), true)) /
      static_cast<double>(inputs.tenants.size());
  if (args.workload == "explain" && marked_share < kExplainMarkedFloor) {
    gate_failures.push_back(StrFormat(
        "%.4f of tenants got the injected cause first over the marked anomaly, "
        "below the floor %.4f", marked_share, kExplainMarkedFloor));
  }
  if (failed > 0) {
    gate_failures.push_back(StrFormat("%llu operation(s) failed",
                                      static_cast<unsigned long long>(failed)));
  }

  LayerMetrics layers;
  ReplayCheck replay;
  if (args.trace) {
    Status probed = ProbeLiveFleet(*fleet, inputs, &spans, &layers);
    if (!probed.ok()) gate_failures.push_back("live probes: " + probed.ToString());
  }
  double rss_mb = fleet->PeakRssMb();
  JsonValue fleet_json = fleet->DescribeJson();
  double skew = PlacementSkew(*fleet, inputs);
  Status stopped = fleet->Stop();
  if (!stopped.ok()) gate_failures.push_back("shutdown: " + stopped.ToString());
  // Per stored row: every acked row plus the preloaded history.
  uint64_t stored_rows = load.preloaded() * inputs.tenants.size();
  for (uint64_t n : load.acked()) stored_rows += n;
  double store_bytes_per_row =
      static_cast<double>(SegmentBytes(fleet_dir)) /
      static_cast<double>(std::max<uint64_t>(stored_rows, 1));

  // --- End-to-end metrics -------------------------------------------------
  // Append latency: the tail per one-second window of the timed phase (see
  // WindowedSummary); the run-wide tail goes in the report too.
  Summary append_summary = WindowedSummary(appends.latency_s, kLatencyWindowSec,
                                           kMinWindowSamples, 99);
  std::vector<double> append_values;
  for (const TimedSample& s : appends.latency_s) append_values.push_back(s.value);
  Summary append_run_summary = Summarize(append_values, 99);
  // Query latency: the tail per two-second window where windows hold
  // enough statements, else over the run.
  Summary explainq_summary = WindowedSummary(queries.explainq_s, kQueryWindowSec,
                                             kMinWindowSamples / 5, 90);
  Summary range_summary = Summarize(queries.diagnose_range_s, 50);
  std::map<std::string, Metric> e2e = {
      {"setup_s", {Median(setup_s), "s"}},
      {"append_rows_per_s",
       {static_cast<double>(appends.acked) / std::max(appends.wall_s, 1e-9), "rows/s"}},
      {"append_p50_ms", {append_summary.median * 1e3, "ms"}},
      {"append_p99_ms", {append_summary.tail * 1e3, "ms"}},
      {"diagnosis_lag_ms", {Median(flush.lag_s) * 1e3, "ms"}},
      {"top1_accuracy", {top1, "ratio"}},
      {"explainq_p50_ms", {explainq_summary.median * 1e3, "ms"}},
      {"explainq_p90_ms", {explainq_summary.tail * 1e3, "ms"}},
      {"diagnose_range_p50_ms", {range_summary.median * 1e3, "ms"}},
      {"queries_per_s",
       {static_cast<double>(queries.done_s.size()) /
            std::max(queries.end_s - queries.start_s, 1e-9),
        "ops/s"}},
      {"store_bytes_per_row", {store_bytes_per_row, "bytes"}},
      {"daemon_rss_mb", {rss_mb, "MiB"}},
  };

  // --- Traced run ---------------------------------------------------------
  std::map<std::string, Metric> per_layer;
  if (args.trace) {
    // The ingest sample: rows every workload sent through the fleet.
    size_t first_row = plan.preload_rows > 0 ? plan.preload_rows : kIngestSampleFirstRow;
    size_t query_conns = args.workload == "mixed" ? kMixedQueryConns : kConns;
    auto replayed = ReplayTraced(*fleet, inputs, first_row, query_conns, kReplayBudgetSec,
                                 args.workdir + "/replay", &spans, &layers);
    if (!replayed.ok()) {
      gate_failures.push_back("traced replay: " + replayed.status().ToString());
    } else {
      replay = *replayed;
      if (!replay.scan_parity) {
        gate_failures.push_back("pushdown scan differs from full decode: " +
                                replay.scan_parity_detail);
      }
    }
    layers["fleet.placement_skew"] = skew;
    layers["service.shed_ratio"] =
        static_cast<double>(appends.retry_after) /
        static_cast<double>(std::max<uint64_t>(appends.sends, 1));
    // Ledger: the ack path of one APPENDSEQ and the blocking steps of one
    // EXPLAINQ, each summed from layer medians over the end-to-end median
    // of the same rows and statements.
    double append_p50_us = Median(appends.untraced_latency_s) * 1e6;
    double append_layers_us = layers["service.ping_rtt_us"] +
                              layers["fleet.router_hop_us"] +
                              layers["service.wire_parse_us"] +
                              layers["service.append_us"];
    layers["ledger.append_coverage"] = append_layers_us / std::max(append_p50_us, 1e-9);
    double explainq_p50_ms = Median(queries.untraced_explainq_s) * 1e3;
    double explainq_layers_ms =
        layers["service.ping_rtt_us"] / 1e3 + layers["fleet.router_hop_us"] / 1e3 +
        layers["service.wire_parse_explainq_us"] / 1e3 + layers["query.parse_us"] / 1e3 +
        layers["query.compile_ms"] + layers["query.execute_ms"] +
        layers["query.render_us"] / 1e3;
    layers["ledger.explainq_coverage"] =
        explainq_layers_ms / std::max(explainq_p50_ms, 1e-9);
    // Traced vs untraced operations of the same run, on the workload's
    // timed operation.
    bool appends_timed = args.workload != "explain";
    double traced = Median(appends_timed ? appends.traced_latency_s
                                         : queries.traced_explainq_s);
    double untraced = Median(appends_timed ? appends.untraced_latency_s
                                           : queries.untraced_explainq_s);
    layers["ledger.trace_overhead"] = traced / std::max(untraced, 1e-12);
    for (const LayerDef& def : kPerLayer) {
      auto found = layers.find(def.name);
      if (found == layers.end()) {
        gate_failures.push_back(std::string("per-layer metric not measured: ") +
                                def.name);
        continue;
      }
      per_layer.emplace(def.name, Metric{found->second, def.unit});
    }
  }

  // --- Report -------------------------------------------------------------
  JsonValue::Object stamp;
  stamp["workload"] = args.workload;
  stamp["seed"] = static_cast<double>(args.seed);
  stamp["seconds"] = args.seconds;
  stamp["trace"] = args.trace;
  stamp["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  stamp["build"] = dbsherlock::bench::BuildInfoJson();
  stamp["fleet"] = std::move(fleet_json);
  stamp["loop"] = loop;
  stamp["tenants"] = static_cast<double>(inputs.tenants.size());
  stamp["rows_per_stream"] = static_cast<double>(plan.shape.rows);
  stamp["mixed_offered_rows_per_s"] = kMixedOfferedRowsPerSec;
  stamp["end_to_end_seconds"] = e2e_s;
  stamp["append_sends"] = static_cast<double>(appends.sends);
  stamp["append_retry_after"] = static_cast<double>(appends.retry_after);
  stamp["append_wall_s"] = appends.wall_s;
  stamp["backlog_rows"] = flush.backlog_rows;
  JsonValue::Object samples;
  samples["append_ms"] = SummaryJson(append_summary, 1e3);
  samples["append_ms_whole_run"] = SummaryJson(append_run_summary, 1e3);
  samples["explainq_ms"] = SummaryJson(explainq_summary, 1e3);
  samples["diagnose_range_ms"] = SummaryJson(range_summary, 1e3);
  for (const auto& [label, values] : queries.by_label_s) {
    samples["statement_ms." + label] = SummaryJson(Summarize(values, 90), 1e3);
  }
  samples["diagnosis_lag_ms"] = SummaryJson(Summarize(flush.lag_s, 99), 1e3);
  samples["diagnosis_lag_ms.drain"] = SummaryJson(Summarize(flush.drain_s, 99), 1e3);
  samples["diagnosis_lag_ms.flush_block"] =
      SummaryJson(Summarize(flush.flush_block_s, 99), 1e3);
  samples["setup_s"] = SummaryJson(Summarize(setup_s, 50), 1.0);
  if (!appends.lateness_s.empty()) {
    samples["generator_lateness_ms"] = SummaryJson(Summarize(appends.lateness_s, 99), 1e3);
  }
  stamp["samples"] = JsonValue(std::move(samples));
  JsonValue::Array gates;
  for (const std::string& g : gate_failures) gates.push_back(g);
  stamp["gate_failures"] = JsonValue(std::move(gates));
  JsonValue::Array misses;
  for (const std::string& m : report_misses) misses.push_back(m);
  for (const std::string& m : flush.misses) misses.push_back("diagnosis " + m);
  stamp["misdiagnoses"] = JsonValue(std::move(misses));
  stamp["wrong_reports"] = static_cast<double>(wrong_reports);
  stamp["marked_region_share"] = marked_share;
  if (args.trace) {
    stamp["ledger_gaps"] =
        "append_coverage leaves out the client's own formatting and "
        "syscalls, the shard's tenant-queue hand-off, and scheduler and "
        "queueing delay under load; explainq_coverage leaves out response "
        "encoding and the socket write of the report";
    stamp["spans"] = static_cast<double>(spans.size());
    stamp["replayed_statements"] = static_cast<double>(replay.statements);
    stamp["replayed_rows"] = static_cast<double>(replay.rows);
    std::ofstream(args.workdir + "/spans.json") << spans.ToJson().Dump() << "\n";
  }
  std::printf("perfbench-report %s\n", JsonValue(std::move(stamp)).Dump().c_str());

  auto reported_only = [](const std::string& name) {
    return std::find(std::begin(kReportedOnly), std::end(kReportedOnly), name) !=
           std::end(kReportedOnly);
  };
  for (const auto& [name, metric] : args.trace ? per_layer : e2e) {
    std::printf("%-34s %14.4f %s%s\n", name.c_str(), metric.value, metric.unit,
                reported_only(name) ? "  (reported only)" : "");
  }
  for (const std::string& g : gate_failures) std::printf("GATE FAILED: %s\n", g.c_str());

  JsonValue::Object metrics;
  for (const auto& [name, metric] : args.trace ? per_layer : e2e) {
    if (reported_only(name)) continue;
    JsonValue::Object m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    metrics[name] = JsonValue(std::move(m));
  }
  JsonValue::Object result;
  result["correct"] = gate_failures.empty();
  result["attempted"] = static_cast<double>(attempted);
  result["failed"] = static_cast<double>(failed);
  result["metrics"] = JsonValue(std::move(metrics));
  std::printf("%s\n", JsonValue(std::move(result)).Dump().c_str());
  std::fflush(stdout);
  return gate_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
