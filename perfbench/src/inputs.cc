#include "inputs.h"

#include <cmath>

#include "common/parallel.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/explainer.h"
#include "eval/experiment.h"
#include "query/ast.h"
#include "service/wire.h"
#include "simulator/dataset_gen.h"

namespace perfbench {

namespace {

using dbsherlock::common::StrFormat;

/// Training datasets per anomaly class; TEACH merges them per cause.
constexpr size_t kTrainSetsPerCause = 2;
/// Seconds of WHERE-statement context on each side of the anomaly.
constexpr double kWhereContextSec = 120.0;
/// Percentiles of the two WHERE statements per tenant. Their cost grows
/// with the regions a threshold discovers; with EXPLAIN REGION as the
/// cheap third of the mix, the EXPLAINQ median falls inside the p95
/// statements rather than on a boundary between statement kinds, where it
/// would flip from run to run.
constexpr double kPercentiles[] = {95.0, 90.0};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

/// The numeric attribute whose mean the anomaly shifts furthest, in units
/// of its standard deviation outside the anomaly; `*up` says which way.
std::string MostShiftedAttribute(const TenantStream& stream, bool* up) {
  const tsdata::Dataset& data = stream.data;
  std::string best;
  double best_score = -1.0;
  for (size_t a = 0; a < data.num_attributes(); ++a) {
    const tsdata::Column& column = data.column(a);
    if (column.kind() != tsdata::AttributeKind::kNumeric) continue;
    double sum_n = 0, sq_n = 0, sum_a = 0;
    size_t n_n = 0, n_a = 0;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      double v = column.numeric(r);
      if (!std::isfinite(v)) continue;
      if (stream.anomaly.Contains(data.timestamp(r))) {
        sum_a += v;
        ++n_a;
      } else {
        sum_n += v;
        sq_n += v * v;
        ++n_n;
      }
    }
    if (n_n < 2 || n_a == 0) continue;
    double mean_n = sum_n / static_cast<double>(n_n);
    double var = std::max(sq_n / static_cast<double>(n_n) - mean_n * mean_n,
                          1e-12);
    double shift = sum_a / static_cast<double>(n_a) - mean_n;
    double score = std::fabs(shift) / std::sqrt(var);
    if (score > best_score) {
      best_score = score;
      best = data.schema().attribute(a).name;
      *up = shift > 0;
    }
  }
  return best;
}

}  // namespace

std::string Statement::Line(const std::string& tenant_name) const {
  return (kind == Kind::kExplainQuery ? "EXPLAINQ " : "DIAGNOSE_RANGE ") +
         tenant_name + " " + text;
}

std::vector<tsdata::Cell> RowCells(const tsdata::Dataset& data, size_t row) {
  std::vector<tsdata::Cell> cells;
  cells.reserve(data.num_attributes());
  for (size_t a = 0; a < data.num_attributes(); ++a) {
    const tsdata::Column& column = data.column(a);
    if (column.kind() == tsdata::AttributeKind::kNumeric) {
      cells.emplace_back(column.numeric(row));
    } else {
      cells.emplace_back(column.CategoryName(column.code(row)));
    }
  }
  return cells;
}

std::string AppendSeqLine(const std::string& tenant, const tsdata::Dataset& data,
                          size_t row, uint64_t seq) {
  std::string line = StrFormat("APPENDSEQ %s %llu %.17g ", tenant.c_str(),
                               static_cast<unsigned long long>(seq),
                               data.timestamp(row));
  std::vector<tsdata::Cell> cells = RowCells(data, row);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    line += dbsherlock::service::FormatCell(cells[i]);
  }
  return line;
}

Inputs MakeInputs(const StreamShape& shape, const std::string& prefix,
                  uint64_t seed) {
  const std::vector<simulator::AnomalyKind>& kinds =
      simulator::AllAnomalyKinds();
  Inputs inputs;
  inputs.tenants = dbsherlock::common::ParallelMap(
      shape.tenants, [&](size_t i) {
        TenantStream stream;
        stream.name = prefix + std::to_string(i);
        stream.kind = kinds[i % kinds.size()];
        stream.cause = simulator::AnomalyKindName(stream.kind);
        dbsherlock::common::Pcg32 rng(Mix(seed, i), 7);
        simulator::AnomalyEvent event;
        event.kind = stream.kind;
        event.start_sec = std::floor(
            rng.NextDouble(shape.anomaly_first_sec, shape.anomaly_last_sec + 1));
        event.duration_sec = shape.anomaly_sec;
        simulator::DatasetGenOptions gen;
        gen.seed = Mix(seed, 1000 + i);
        simulator::GeneratedDataset generated = simulator::GenerateWithSchedule(
            gen, {event}, static_cast<double>(shape.rows));
        stream.data = std::move(generated.data);
        stream.anomaly = {event.start_sec, event.start_sec + event.duration_sec};
        return stream;
      });

  const core::Explainer::Options explainer;  // the daemon's defaults
  inputs.models = dbsherlock::common::ParallelMap(
      kinds.size() * kTrainSetsPerCause, [&](size_t i) {
        simulator::AnomalyKind kind = kinds[i / kTrainSetsPerCause];
        simulator::DatasetGenOptions gen;
        gen.normal_duration_sec = 300.0;
        gen.seed = Mix(seed, 100000 + i);
        simulator::GeneratedDataset train =
            simulator::GenerateAnomalyDataset(gen, kind, shape.anomaly_sec);
        return dbsherlock::eval::BuildCausalModel(
            train, simulator::AnomalyKindName(kind),
            explainer.predicate_options,
            explainer.apply_domain_knowledge ? &explainer.domain_knowledge
                                             : nullptr,
            explainer.independence_options);
      });

  using dbsherlock::query::FormatNumber;
  for (size_t i = 0; i < inputs.tenants.size(); ++i) {
    const TenantStream& stream = inputs.tenants[i];
    std::string t0 = FormatNumber(stream.anomaly.start);
    std::string t1 = FormatNumber(stream.anomaly.end);
    inputs.statements.push_back({Statement::Kind::kExplainQuery, i,
                                 "EXPLAIN REGION " + t0 + " " + t1, "region"});
    bool up = true;
    std::string attribute = MostShiftedAttribute(stream, &up);
    for (double p : kPercentiles) {
      std::string threshold =
          up ? "> p" + FormatNumber(p) : "< p" + FormatNumber(100.0 - p);
      inputs.statements.push_back(
          {Statement::Kind::kExplainQuery, i,
           "EXPLAIN WHERE " + attribute + " " + threshold + " BETWEEN " +
               FormatNumber(stream.anomaly.start - kWhereContextSec) + " " +
               FormatNumber(stream.anomaly.end + kWhereContextSec),
           "where-p" + FormatNumber(up ? p : 100.0 - p)});
    }
    inputs.statements.push_back(
        {Statement::Kind::kDiagnoseRange, i, t0 + " " + t1, "diagnose-range"});
  }
  return inputs;
}

}  // namespace perfbench
