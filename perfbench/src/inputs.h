#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/causal_model.h"
#include "simulator/anomaly.h"
#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace perfbench {

namespace core = dbsherlock::core;
namespace simulator = dbsherlock::simulator;
namespace tsdata = dbsherlock::tsdata;

/// How many tenants a workload streams and how their streams look. Every
/// stream is simulated telemetry (50 attributes, one row per second) with
/// exactly one injected anomaly; classes are assigned round-robin.
struct StreamShape {
  size_t tenants = 0;
  size_t rows = 0;  // rows per tenant stream
  /// The anomaly starts uniformly in [first, last] seconds into the stream.
  double anomaly_first_sec = 0.0;
  double anomaly_last_sec = 0.0;
  double anomaly_sec = 40.0;
};

struct TenantStream {
  std::string name;
  simulator::AnomalyKind kind{};
  std::string cause;            // AnomalyKindName(kind)
  tsdata::Dataset data;         // the rows, in send order
  tsdata::TimeRange anomaly;    // ground truth
};

/// Statements per tenant, consecutive in Inputs::statements: EXPLAIN
/// REGION over the anomaly, two EXPLAIN WHERE at rotating percentiles, and
/// DIAGNOSE_RANGE over the anomaly.
inline constexpr size_t kStatementsPerTenant = 4;

/// One read the query clients send: an EXPLAINQ statement or a
/// DIAGNOSE_RANGE over the tenant's known anomaly.
struct Statement {
  enum class Kind { kExplainQuery, kDiagnoseRange };
  Kind kind = Kind::kExplainQuery;
  size_t tenant = 0;   // index into Inputs::tenants
  std::string text;    // DQL, or "<t0> <t1>" for kDiagnoseRange
  std::string label;   // "region", "where-p99", "diagnose-range"

  /// The request line as the wire carries it.
  std::string Line(const std::string& tenant_name) const;
};

struct Inputs {
  std::vector<TenantStream> tenants;
  /// Two training datasets per anomaly class, built into causal models the
  /// benchmark teaches every shard (TEACH merges the pair per cause).
  std::vector<dbsherlock::core::CausalModel> models;
  std::vector<Statement> statements;
};

/// Builds every input from `seed`: the same seed gives the same streams,
/// models and statements. Tenant names are "<prefix><i>".
Inputs MakeInputs(const StreamShape& shape, const std::string& prefix,
                  uint64_t seed);

/// The APPENDSEQ line carrying row `row` of `data` for `tenant`, formatted
/// exactly as service::Client::AppendSeq formats it.
std::string AppendSeqLine(const std::string& tenant, const tsdata::Dataset& data,
                          size_t row, uint64_t seq);

/// Row `row` of `data` as append cells.
std::vector<tsdata::Cell> RowCells(const tsdata::Dataset& data, size_t row);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
