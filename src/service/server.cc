#include "service/server.h"

#include "common/strings.h"

namespace dbsherlock::service {

using common::Result;
using common::Status;

Server::Server(Options options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(Options options) {
  if (options.service == nullptr) {
    return Status::InvalidArgument("Server needs a Service");
  }
  fleet::EventLoop::Options loop_options;
  loop_options.host = options.host;
  loop_options.port = options.port;
  loop_options.max_connections = options.max_connections;
  loop_options.max_line_bytes = options.max_line_bytes;
  loop_options.idle_timeout_ms = options.idle_timeout_ms;
  loop_options.handler_threads = options.handler_threads;
  // The loop is protocol-agnostic; its canned responses are rendered with
  // the same wire helpers the dispatcher uses.
  loop_options.shed_response = RetryAfterLine(options.accept_retry_after_ms);
  loop_options.oversized_response =
      ErrLine(Status::ParseError("request line too long"));
  loop_options.offload = [](const std::string& line) {
    return ShouldOffload(line);
  };
  auto server = std::unique_ptr<Server>(new Server(std::move(options)));
  loop_options.handler = [raw = server.get()](const std::string& line,
                                              bool* quit) {
    return raw->HandleLine(line, quit);
  };
  auto loop = fleet::EventLoop::Start(std::move(loop_options));
  if (!loop.ok()) return loop.status();
  server->loop_ = std::move(*loop);
  return server;
}

Server::~Server() { Stop(); }

bool Server::ShouldOffload(const std::string& line) {
  // Inline (loop-thread) verbs must never block: PING/QUIT are trivial
  // and APPEND's bounded queue sheds instead of blocking. Everything
  // else — FLUSH waits on drains, TEACH fsyncs the WAL, HELLO may open a
  // history store, reads serialize JSON under locks — goes to the pool.
  if (line.empty()) return false;  // cheap parse error
  if (line[0] == '{') {
    // JSON append is inline; JSON hello (store I/O) is not.
    return line.find("\"op\":\"append\"") == std::string::npos;
  }
  size_t end = line.find_first_of(" \t\r");
  std::string_view verb(line.data(), end == std::string::npos ? line.size()
                                                              : end);
  return !(verb == "APPEND" || verb == "APPENDSEQ" || verb == "PING" ||
           verb == "QUIT");
}

std::string Server::HandleLine(const std::string& line, bool* quit) {
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) return ErrLine(parsed.status());
  Request& request = *parsed;
  Service& service = *options_.service;

  switch (request.op) {
    case RequestOp::kPing:
      return OkLine("pong");
    case RequestOp::kQuit:
      *quit = true;
      return OkLine("bye");
    case RequestOp::kHello: {
      std::optional<TenantManager::Retention> retain;
      if (request.has_retain) {
        retain = TenantManager::Retention{request.retain_bytes,
                                          request.retain_age_sec};
      }
      Status status = service.Hello(request.tenant, request.schema, retain);
      if (!status.ok()) return ErrLine(status);
      std::string detail = common::StrFormat(
          "tenant %s attrs %zu", request.tenant.c_str(),
          request.schema.num_attributes());
      // The durable high-water timestamp, when history exists: rows after
      // it did not survive a crash, so an idempotent writer resumes from
      // the first row strictly after this point.
      auto tenant = service.tenants().Find(request.tenant);
      if (tenant.ok() && (*tenant)->history != nullptr) {
        if (auto last = (*tenant)->history->durable_last_ts()) {
          detail += common::StrFormat(" last_ts %.17g", *last);
        }
      }
      return OkLine(detail);
    }
    case RequestOp::kAppend: {
      std::vector<tsdata::Cell> cells;
      if (request.cells_typed) {
        cells = std::move(request.cells);
      } else {
        // CSV cells are typed against the tenant's schema here (the wire
        // layer is schema-blind).
        auto tenant = service.tenants().Find(request.tenant);
        if (!tenant.ok()) return ErrLine(tenant.status());
        const tsdata::Schema& schema = (*tenant)->schema;
        if (request.raw_cells.size() != schema.num_attributes()) {
          return ErrLine(Status::InvalidArgument(common::StrFormat(
              "row has %zu cells, schema has %zu attributes",
              request.raw_cells.size(), schema.num_attributes())));
        }
        cells.reserve(request.raw_cells.size());
        for (size_t i = 0; i < request.raw_cells.size(); ++i) {
          if (schema.attribute(i).kind == tsdata::AttributeKind::kNumeric) {
            auto value = common::ParseDouble(request.raw_cells[i]);
            if (!value.ok()) return ErrLine(value.status());
            cells.emplace_back(*value);
          } else {
            cells.emplace_back(request.raw_cells[i]);
          }
        }
      }
      std::optional<uint64_t> client_seq;
      if (request.has_client_seq) client_seq = request.client_seq;
      auto outcome = service.Append(request.tenant, request.timestamp,
                                    std::move(cells), client_seq);
      if (!outcome.ok()) return ErrLine(outcome.status());
      if (!outcome->accepted) return RetryAfterLine(outcome->retry_after_ms);
      return OkLine(common::StrFormat(
          "%llu%s", static_cast<unsigned long long>(outcome->seq),
          outcome->replayed ? " replayed" : ""));
    }
    case RequestOp::kTeach: {
      Status status = service.Teach(request.model);
      if (!status.ok()) return ErrLine(status);
      return OkLine("taught " + request.model.cause);
    }
    case RequestOp::kFlush: {
      Status status = service.Flush(request.tenant);
      if (!status.ok()) return ErrLine(status);
      return OkLine("flushed");
    }
    case RequestOp::kDiagnoses: {
      auto diagnoses = service.DiagnosesJson(request.tenant);
      if (!diagnoses.ok()) return ErrLine(diagnoses.status());
      return OkLine(diagnoses->Dump());
    }
    case RequestOp::kQuery: {
      auto rows = service.QueryJson(request.tenant, request.t0, request.t1,
                                    request.bounds);
      if (!rows.ok()) return ErrLine(rows.status());
      return OkLine(rows->Dump());
    }
    case RequestOp::kDiagnoseRange: {
      auto diagnosis =
          service.DiagnoseRangeJson(request.tenant, request.t0, request.t1);
      if (!diagnosis.ok()) return ErrLine(diagnosis.status());
      return OkLine(diagnosis->Dump());
    }
    case RequestOp::kExplainQuery: {
      auto report =
          service.ExplainQueryJson(request.tenant, request.query_text);
      if (!report.ok()) return ErrLine(report.status());
      return OkLine(report->Dump());
    }
    case RequestOp::kStats:
      return OkLine(service.StatsJson().Dump());
    case RequestOp::kModels:
      return OkLine(service.ModelsJson().Dump());
    case RequestOp::kModelSync:
      return OkLine(service.ModelSyncJson(request.model_sync_since).Dump());
    case RequestOp::kHealth:
      return OkLine(service.HealthJson().Dump());
  }
  return ErrLine(Status::Internal("unhandled request op"));
}

void Server::Stop() {
  if (loop_ != nullptr) loop_->Stop();
}

}  // namespace dbsherlock::service
