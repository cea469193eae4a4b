#include "drive.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/random.h"
#include "samples.h"
#include "service/client.h"
#include "service/wire.h"

namespace perfbench {

namespace {

using dbsherlock::common::JsonValue;
using dbsherlock::common::Status;
using dbsherlock::service::Client;
using dbsherlock::service::Response;

constexpr int kConnectTimeoutMs = 5000;
constexpr int kCallDeadlineMs = 60000;
/// Reconnect-and-resend cycles before a row is abandoned.
constexpr int kMaxRecoveriesPerRow = 5;
/// Bounds of the STATS polling interval while a tenant's queue drains.
constexpr double kMinDrainPollSec = 0.001;
constexpr double kMaxDrainPollSec = 0.020;

std::unique_ptr<Client> Connect(int port) {
  Client::Options options;
  options.connect_timeout_ms = kConnectTimeoutMs;
  options.deadline_ms = kCallDeadlineMs;
  auto client = Client::Connect("127.0.0.1", port, options);
  return client.ok() ? std::move(*client) : nullptr;
}

void SleepUntil(double t_s) {
  double wait = t_s - NowSeconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

void Merge(AppendResult* into, const AppendResult& part) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  into->latency_s.insert(into->latency_s.end(), part.latency_s.begin(),
                         part.latency_s.end());
  append(&into->traced_latency_s, part.traced_latency_s);
  append(&into->untraced_latency_s, part.untraced_latency_s);
  append(&into->lateness_s, part.lateness_s);
  into->attempted += part.attempted;
  into->acked += part.acked;
  into->sends += part.sends;
  into->retry_after += part.retry_after;
  into->failed += part.failed;
}

void MergeQueries(QueryResult* into, const QueryResult& part) {
  auto append = [](auto* a, const auto& b) { a->insert(a->end(), b.begin(), b.end()); };
  append(&into->explainq_s, part.explainq_s);
  append(&into->diagnose_range_s, part.diagnose_range_s);
  append(&into->done_s, part.done_s);
  append(&into->traced_explainq_s, part.traced_explainq_s);
  append(&into->untraced_explainq_s, part.untraced_explainq_s);
  for (const auto& [label, values] : part.by_label_s) {
    append(&into->by_label_s[label], values);
  }
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->right.resize(std::max(into->right.size(), part.right.size()), 0);
  into->wrong.resize(into->right.size(), 0);
  into->wrong_example.resize(into->right.size());
  for (size_t i = 0; i < part.right.size(); ++i) {
    into->right[i] += part.right[i];
    into->wrong[i] += part.wrong[i];
    if (!part.wrong_example[i].empty()) into->wrong_example[i] = part.wrong_example[i];
  }
}

}  // namespace

std::map<std::string, double> ProcessedRows(const JsonValue& stats) {
  std::map<std::string, double> out;
  const JsonValue* shards = stats.Find("shards");
  if (shards == nullptr || !shards->is_object()) return out;
  for (const auto& [address, shard] : shards->as_object()) {
    const JsonValue* tenants = shard.Find("tenants");
    if (tenants == nullptr || !tenants->is_object()) continue;
    for (const auto& [name, tenant] : tenants->as_object()) {
      out[name] += tenant.GetNumber("processed").ValueOr(0.0);
    }
  }
  return out;
}

std::string TopCauseOverlapping(const JsonValue& entries,
                                const tsdata::TimeRange& truth,
                                const std::string& expected) {
  if (!entries.is_array()) return "";
  std::string first;
  for (const JsonValue& entry : entries.as_array()) {
    const JsonValue* region = entry.Find("region");
    auto causes = entry.GetArray("causes");
    if (region == nullptr || !causes.ok()) continue;
    double start = region->GetNumber("start").ValueOr(0.0);
    double end = region->GetNumber("end").ValueOr(0.0);
    if (!(start < truth.end && truth.start < end)) continue;
    std::string top;
    if (!(*causes)->as_array().empty()) {
      top = (*causes)->as_array().front().GetString("cause").ValueOr("");
    }
    if (top == expected) return top;
    if (first.empty()) first = top.empty() ? "(no cause)" : top;
  }
  return first;
}

LoadGenerator::LoadGenerator(const Inputs& inputs, int port, SpanLog* spans, uint64_t seed)
    : inputs_(inputs),
      port_(port),
      spans_(spans),
      seed_(seed),
      next_row_(inputs.tenants.size(), 0),
      acked_(inputs.tenants.size(), 0),
      last_ack_s_(inputs.tenants.size(), 0.0) {}

Status LoadGenerator::HelloAll() {
  std::unique_ptr<Client> client = Connect(port_);
  if (client == nullptr) return Status::IoError("cannot connect to router");
  for (const TenantStream& stream : inputs_.tenants) {
    DBSHERLOCK_RETURN_NOT_OK(client->Hello(stream.name, stream.data.schema()));
  }
  return Status::OK();
}

AppendResult LoadGenerator::AppendClosed(size_t conns, size_t until_row,
                                  double measure_from_s, double deadline_s) {
  return Append(conns, 0.0, until_row, measure_from_s, deadline_s);
}

AppendResult LoadGenerator::AppendOpen(size_t conns, double rows_per_s,
                                size_t until_row, double deadline_s) {
  return Append(conns, rows_per_s, until_row, 0.0, deadline_s);
}

AppendResult LoadGenerator::Append(size_t conns, double rows_per_s, size_t until_row,
                            double measure_from_s, double deadline_s) {
  const bool open_loop = rows_per_s > 0;
  std::vector<AppendResult> parts(conns);
  std::vector<double> last_measured_ack(conns, 0.0);
  const double start_s = NowSeconds();
  const double window_start_s = std::max(start_s, measure_from_s);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      AppendResult& out = parts[c];
      std::vector<size_t> mine;
      for (size_t t = c; t < inputs_.tenants.size(); t += conns) {
        if (next_row_[t] < std::min(until_row, inputs_.tenants[t].data.num_rows())) {
          mine.push_back(t);
        }
      }
      std::unique_ptr<Client> client = Connect(port_);
      if (client == nullptr) {
        ++out.failed;
        return;
      }
      dbsherlock::service::RetryPolicy policy;
      dbsherlock::common::Pcg32 rng(seed_ * 131 + c, 3);
      // Open loop: this connection's share of the rate, phase-shifted so
      // the connections interleave.
      const double rate = std::max(rows_per_s, 1.0);
      OpenLoopSchedule schedule(start_s + static_cast<double>(c) / rate,
                                rate / static_cast<double>(conns));
      uint64_t k = 0;
      size_t cursor = 0;
      while (!mine.empty()) {
        if (open_loop && schedule.DueAt(k) >= deadline_s) break;
        if (!open_loop && NowSeconds() >= deadline_s) break;
        cursor %= mine.size();
        size_t t = mine[cursor];
        const TenantStream& stream = inputs_.tenants[t];
        size_t row = next_row_[t];
        std::string line = AppendSeqLine(stream.name, stream.data, row, row + 1);
        if (open_loop) SleepUntil(schedule.DueAt(k));
        ++out.attempted;
        double first_send = NowSeconds();
        bool measured = first_send >= measure_from_s;
        bool acked = false;
        int attempt = 0;
        int recoveries = 0;
        uint64_t sends = 0;
        for (;;) {
          ++sends;
          auto response = client->Call(line);
          if (!response.ok()) {
            if (++recoveries > kMaxRecoveriesPerRow || !client->Reconnect().ok()) {
              break;
            }
            continue;
          }
          if (response->kind == Response::Kind::kOk) {
            acked = true;
            break;
          }
          if (response->kind == Response::Kind::kErr) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(
              dbsherlock::service::BackoffSleepMs(
                  policy, attempt++, response->retry_after_ms,
                  rng.NextDouble())));
        }
        double ack_s = NowSeconds();
        next_row_[t] = row + 1;
        if (next_row_[t] >= std::min(until_row, stream.data.num_rows())) {
          mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(cursor));
        } else {
          ++cursor;
        }
        uint64_t op = k++;
        if (!acked) {
          ++out.failed;
          continue;
        }
        ++acked_[t];
        last_ack_s_[t] = ack_s;
        if (!measured) continue;
        out.sends += sends;
        out.retry_after += static_cast<uint64_t>(attempt);
        ++out.acked;
        last_measured_ack[c] = ack_s;
        double latency = open_loop ? schedule.Record(op, first_send, ack_s)
                                   : ack_s - first_send;
        out.latency_s.push_back({open_loop ? schedule.DueAt(op) : first_send, latency});
        bool traced = spans_ != nullptr && op % 2 == 0;
        if (traced) {
          spans_->Add({spans_->NewOp(), "client.appendseq", "", first_send, ack_s});
          out.traced_latency_s.push_back(latency);
        } else {
          out.untraced_latency_s.push_back(latency);
        }
      }
      if (open_loop) out.lateness_s = schedule.lateness();
      (void)client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  AppendResult result;
  for (const AppendResult& part : parts) Merge(&result, part);
  double last_ack = *std::max_element(last_measured_ack.begin(), last_measured_ack.end());
  result.wall_s = std::max(0.0, last_ack - window_start_s);
  return result;
}


QueryResult LoadGenerator::Queries(size_t conns, double deadline_s, size_t passes) {
  const std::vector<Statement>& statements = inputs_.statements;
  std::vector<QueryResult> parts(conns);
  double start_s = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      QueryResult& out = parts[c];
      out.right.assign(statements.size(), 0);
      out.wrong.assign(statements.size(), 0);
      out.wrong_example.assign(statements.size(), "");
      std::unique_ptr<Client> client = Connect(port_);
      if (client == nullptr) {
        ++out.failed;
        return;
      }
      // Start on a tenant boundary, spread over the statement list.
      size_t next = c * inputs_.tenants.size() / conns * kStatementsPerTenant;
      // With passes, each connection runs passes * n / conns statements
      // from its start, so together they run every statement that often.
      const uint64_t quota = passes * statements.size() / conns;
      for (uint64_t op = 0; passes > 0 ? op < quota : NowSeconds() < deadline_s;
           ++op, ++next) {
        size_t index = next % statements.size();
        const Statement& statement = statements[index];
        const TenantStream& stream = inputs_.tenants[statement.tenant];
        std::string line = statement.Line(stream.name);
        ++out.attempted;
        double start = NowSeconds();
        auto response = client->Call(line);
        double end = NowSeconds();
        if (!response.ok() || response->kind != Response::Kind::kOk) {
          ++out.failed;
          if (!response.ok()) (void)client->Reconnect();
          continue;
        }
        double latency = end - start;
        bool explainq = statement.kind == Statement::Kind::kExplainQuery;
        if (explainq) {
          out.explainq_s.push_back({start, latency});
        } else {
          out.diagnose_range_s.push_back(latency);
        }
        out.done_s.push_back(end);
        out.by_label_s[statement.label].push_back(latency);
        if (explainq) {
          // Alternate per block of statements, so traced and untraced
          // calls run the same statement mix.
          bool traced =
              spans_ != nullptr && (op / kStatementsPerTenant) % 2 == 0;
          if (traced) {
            spans_->Add({spans_->NewOp(), "client.explainq", "", start, end});
          }
          (traced ? out.traced_explainq_s : out.untraced_explainq_s)
              .push_back(latency);
        }
        auto json = dbsherlock::common::ParseJson(response->detail);
        std::string top;
        if (json.ok()) {
          JsonValue entries;
          if (explainq) {
            const JsonValue* findings = json->Find("findings");
            if (findings != nullptr) entries = *findings;
          } else {
            entries = JsonValue(JsonValue::Array{*json});
          }
          top = TopCauseOverlapping(entries, stream.anomaly, stream.cause);
        }
        if (top == stream.cause) {
          ++out.right[index];
        } else {
          ++out.wrong[index];
          out.wrong_example[index] = top.empty() ? "(no overlapping finding)" : top;
        }
      }
      (void)client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  QueryResult result;
  result.start_s = start_s;
  result.end_s = passes > 0 ? NowSeconds() : deadline_s;
  for (const QueryResult& part : parts) MergeQueries(&result, part);
  return result;
}

AppendResult LoadGenerator::TopUpQueues(size_t conns, size_t until_row) {
  std::vector<AppendResult> parts(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      AppendResult& out = parts[c];
      std::unique_ptr<Client> client = Connect(port_);
      if (client == nullptr) {
        ++out.failed;
        return;
      }
      for (size_t t = c; t < inputs_.tenants.size(); t += conns) {
        const TenantStream& stream = inputs_.tenants[t];
        size_t end = std::min(until_row, stream.data.num_rows());
        while (next_row_[t] < end) {
          size_t row = next_row_[t];
          ++out.attempted;
          auto response =
              client->Call(AppendSeqLine(stream.name, stream.data, row, row + 1));
          if (response.ok() && response->kind == Response::Kind::kRetryAfter) {
            --out.attempted;  // resent by the next phase
            break;
          }
          if (!response.ok() || response->kind != Response::Kind::kOk) {
            ++out.failed;
            break;
          }
          next_row_[t] = row + 1;
          ++acked_[t];
          ++out.acked;
          last_ack_s_[t] = NowSeconds();
        }
      }
      (void)client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  AppendResult result;
  for (const AppendResult& part : parts) Merge(&result, part);
  return result;
}

FlushResult LoadGenerator::FlushAndCheck(size_t conns) {
  FlushResult result;
  // FLUSH blocks until the tenant's queue is drained, and the router gives
  // up on a shard call after its 5 s upstream deadline (then marks the
  // shard down). So one connection first watches the drain on STATS,
  // noting when each tenant's processed rows reached its acked rows; the
  // interval grows with the wait (fine-grained for short lags, a small
  // share of long ones, little load on the drain). FLUSH then only waits
  // for the diagnoses still pending. A tenant's lag is the time from its
  // last ack until STATS showed it drained, plus the time its FLUSH
  // blocked.
  std::vector<double> drained_at(inputs_.tenants.size(), -1.0);
  {
    std::unique_ptr<Client> client = Connect(port_);
    const double wait_start = NowSeconds();
    size_t pending = inputs_.tenants.size();
    while (client != nullptr && pending > 0) {
      ++result.attempted;
      auto stats = client->Stats();
      double now = NowSeconds();
      if (!stats.ok()) {
        ++result.failed;
        break;
      }
      std::map<std::string, double> processed = ProcessedRows(*stats);
      for (size_t t = 0; t < inputs_.tenants.size(); ++t) {
        if (result.attempted == 1) {
          result.backlog_rows += static_cast<double>(acked_[t]) -
                                 processed[inputs_.tenants[t].name];
        }
        if (drained_at[t] < 0 &&
            processed[inputs_.tenants[t].name] >= static_cast<double>(acked_[t])) {
          drained_at[t] = now;
          --pending;
        }
      }
      if (pending == 0) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(std::clamp(
          (now - wait_start) * 0.02, kMinDrainPollSec, kMaxDrainPollSec)));
    }
  }

  std::vector<FlushResult> parts(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      FlushResult& out = parts[c];
      std::unique_ptr<Client> client = Connect(port_);
      if (client == nullptr) {
        ++out.failed;
        return;
      }
      for (size_t t = c; t < inputs_.tenants.size(); t += conns) {
        const TenantStream& stream = inputs_.tenants[t];
        out.attempted += 2;
        double flush_start = NowSeconds();
        Status flushed = client->Flush(stream.name);
        double done = NowSeconds();
        if (!flushed.ok()) {
          ++out.failed;
          out.misses.push_back(stream.name + ": FLUSH " + flushed.ToString());
          continue;
        }
        if (acked_[t] > 0) {
          double drained = drained_at[t] >= 0 ? drained_at[t] : flush_start;
          out.drain_s.push_back(std::max(0.0, drained - last_ack_s_[t]));
          out.flush_block_s.push_back(done - flush_start);
          out.lag_s.push_back(out.drain_s.back() + out.flush_block_s.back());
        }
        auto diagnoses = client->Diagnoses(stream.name);
        if (!diagnoses.ok()) {
          ++out.failed;
          continue;
        }
        std::string top =
            TopCauseOverlapping(*diagnoses, stream.anomaly, stream.cause);
        if (top == stream.cause) {
          ++out.tenants_correct;
        } else {
          out.misses.push_back(stream.name + ": expected " + stream.cause +
                               ", got " + (top.empty() ? "no overlapping diagnosis" : top));
        }
      }
      (void)client->Quit();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (FlushResult& part : parts) {
    result.lag_s.insert(result.lag_s.end(), part.lag_s.begin(), part.lag_s.end());
    result.drain_s.insert(result.drain_s.end(), part.drain_s.begin(), part.drain_s.end());
    result.flush_block_s.insert(result.flush_block_s.end(), part.flush_block_s.begin(),
                                part.flush_block_s.end());
    result.tenants_correct += part.tenants_correct;
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.misses.insert(result.misses.end(), part.misses.begin(), part.misses.end());
  }
  return result;
}

}  // namespace perfbench
