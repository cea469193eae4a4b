#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "inputs.h"
#include "samples.h"
#include "spans.h"

namespace perfbench {

/// What one append phase did. Latencies are seconds per acked row: from
/// the first send in a closed loop (so RETRY_AFTER backoff counts), from
/// the due time in an open loop.
struct AppendResult {
  std::vector<TimedSample> latency_s;  // at first send, or due time
  /// Split of latency_s by whether the benchmark recorded a span around
  /// the call (every other row of a traced run); the ratio of the two
  /// medians is the tracing overhead.
  std::vector<double> traced_latency_s;
  std::vector<double> untraced_latency_s;
  std::vector<double> lateness_s;  // open loop: send minus due
  uint64_t attempted = 0;          // rows the phase tried to land
  uint64_t acked = 0;
  uint64_t sends = 0;              // APPENDSEQ lines sent, resends included
  uint64_t retry_after = 0;        // RETRY_AFTER responses
  uint64_t failed = 0;             // ERR, or abandoned after reconnects
  double wall_s = 0.0;             // warm-up end to last timed ack
};

struct QueryResult {
  std::vector<TimedSample> explainq_s;  // at the send
  std::vector<double> diagnose_range_s;
  std::vector<double> done_s;           // completion time of every query
  std::vector<double> traced_explainq_s;
  std::vector<double> untraced_explainq_s;
  std::map<std::string, std::vector<double>> by_label_s;  // Statement::label
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double start_s = 0.0;
  double end_s = 0.0;  // the deadline
  /// Per statement: how often its report put the tenant's injected cause
  /// first (on the finding that overlaps the anomaly), and how often not.
  std::vector<uint64_t> right;
  std::vector<uint64_t> wrong;
  std::vector<std::string> wrong_example;  // a report's top cause, if wrong
};

struct FlushResult {
  std::vector<double> lag_s;   // per tenant: last ack to FLUSH return
  std::vector<double> drain_s;        // its drain part (last ack to drained)
  std::vector<double> flush_block_s;  // its pending-diagnoses part
  double backlog_rows = 0;            // acked, not yet processed, at start
  size_t tenants_correct = 0;  // injected cause first on an overlapping
                               // diagnosis
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> misses;  // "tenant: expected X, got Y"
};

/// Drives the fleet over service::Client connections. Each tenant has one
/// writer; stream position and ack counts persist across phases so a
/// preload and a later timed phase continue the same streams.
class LoadGenerator {
 public:
  /// `spans` is null for an untraced run.
  LoadGenerator(const Inputs& inputs, int port, SpanLog* spans, uint64_t seed);

  /// HELLO every tenant through `port`.
  dbsherlock::common::Status HelloAll();

  /// Closed loop on `conns` connections: connection c owns tenants
  /// i % conns == c and sends their next rows round-robin, one in flight,
  /// until `deadline_s` or until every owned stream reaches `until_row`.
  /// Rows first sent before `measure_from_s` (the warm-up) land but are
  /// left out of the result's timings and counts.
  AppendResult AppendClosed(size_t conns, size_t until_row,
                            double measure_from_s, double deadline_s);

  /// Open loop on `conns` connections offering `rows_per_s` in total at a
  /// fixed rate, each row timed from its due time, until `deadline_s`.
  AppendResult AppendOpen(size_t conns, double rows_per_s, size_t until_row,
                          double deadline_s);

  /// Closed loop of EXPLAINQ / DIAGNOSE_RANGE on `conns` connections,
  /// each cycling over every statement from its own starting point, until
  /// `deadline_s`, or, with `passes` > 0, until the connections together
  /// have run every statement `passes` times.
  QueryResult Queries(size_t conns, double deadline_s, size_t passes = 0);

  /// Sends each tenant's next rows, below `until_row`, until its queue
  /// answers RETRY_AFTER (that row is not acked and is sent again by the
  /// next phase): every queue is then full, so the lag measured next
  /// starts from the same backlog on every run.
  AppendResult TopUpQueues(size_t conns, size_t until_row);

  /// FLUSH then DIAGNOSES for every tenant, on `conns` connections.
  FlushResult FlushAndCheck(size_t conns);

  /// The first `rows` of every stream are already in the tenants' stores
  /// (written before HELLO); streaming resumes after them.
  void SetPreloaded(size_t rows) {
    preloaded_ = rows;
    next_row_.assign(next_row_.size(), rows);
  }

  size_t preloaded() const { return preloaded_; }
  const std::vector<uint64_t>& acked() const { return acked_; }

 private:
  AppendResult Append(size_t conns, double rows_per_s, size_t until_row,
                      double measure_from_s, double deadline_s);

  const Inputs& inputs_;
  int port_;
  SpanLog* spans_;
  uint64_t seed_;
  size_t preloaded_ = 0;
  std::vector<size_t> next_row_;     // per tenant
  std::vector<uint64_t> acked_;      // per tenant
  std::vector<double> last_ack_s_;   // per tenant
};

/// Rows each tenant has run through its monitor (`processed`), summed over
/// the shards of a router STATS response.
std::map<std::string, double> ProcessedRows(
    const dbsherlock::common::JsonValue& stats);

/// The top cause of the first entry of `entries` (DIAGNOSES items or
/// EXPLAINQ findings: objects with "region" and "causes") whose region
/// overlaps `truth` and ranks `expected` first, else of the first entry
/// that overlaps at all; "" when none overlaps.
std::string TopCauseOverlapping(const dbsherlock::common::JsonValue& entries,
                                const tsdata::TimeRange& truth,
                                const std::string& expected);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
