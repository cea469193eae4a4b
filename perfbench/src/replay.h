#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "daemons.h"
#include "drive.h"
#include "inputs.h"
#include "spans.h"

namespace perfbench {

/// Per-layer numbers, by metric name (see BENCHMARK.json's per_layer).
using LayerMetrics = std::map<std::string, double>;

/// Layer probes that need the daemons up, taken after the end-to-end
/// phases: the transport floor (PING straight to a shard), the router
/// hop (the same APPENDSEQ rows through the router and straight to the
/// owning shard, interleaved), and the router's and shards' STATS
/// counters. Adds a probe tenant of its own.
dbsherlock::common::Status ProbeLiveFleet(const Fleet& fleet,
                                          const Inputs& inputs,
                                          SpanLog* spans, LayerMetrics* out);

/// What the traced replay found besides its timings.
struct ReplayCheck {
  bool scan_parity = true;      // pushdown scans == full decodes
  std::string scan_parity_detail;
  size_t statements = 0;        // statements replayed
  size_t rows = 0;              // ingest rows replayed
};

/// The traced run: with the daemons stopped, reopens each shard's store
/// and model WAL in-process and replays `inputs.statements` (on `conns`
/// threads, the end-to-end run's query concurrency; every statement once,
/// then more passes until `budget_s`) and a sample of the ingest rows
/// from `first_row` on through the public functions of the service, core,
/// store and query layers, recording one span per call. Scratch stores for
/// the ingest replay go under `scratch_dir`.
dbsherlock::common::Result<ReplayCheck> ReplayTraced(
    const Fleet& fleet, const Inputs& inputs, size_t first_row, size_t conns,
    double budget_s, const std::string& scratch_dir, SpanLog* spans,
    LayerMetrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
