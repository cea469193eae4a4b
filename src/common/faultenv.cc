#include "common/faultenv.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"

namespace dbsherlock::common::faultenv {

namespace {

using common::Result;
using common::Status;

struct Rule {
  std::string site;          // exact label, or prefix when wildcard
  bool wildcard = false;     // site ended in '*'
  FaultKind kind = FaultKind::kEio;
  double probability = 0.0;
  int stall_ms = 50;
  uint64_t after = 0;              // armed only past this many site calls
  uint64_t limit = UINT64_MAX;     // max injections for this rule
  uint64_t fired = 0;
};

struct SiteStats {
  uint64_t calls = 0;
  uint64_t injected = 0;
};

/// The process-wide schedule. The mutex is only ever taken on the
/// enabled path; disabled callers see just the relaxed atomic in
/// Enabled().
struct Schedule {
  std::string spec;
  std::vector<Rule> rules;
  Pcg32 rng{1, 54};
  std::map<std::string, SiteStats> stats;
  uint64_t injected_total = 0;
};

std::mutex g_mu;
std::unique_ptr<Schedule> g_schedule;

Result<FaultKind> ParseKind(const std::string& name) {
  if (name == "eio") return FaultKind::kEio;
  if (name == "enospc") return FaultKind::kEnospc;
  if (name == "short") return FaultKind::kShort;
  if (name == "torn") return FaultKind::kTorn;
  if (name == "stall") return FaultKind::kStall;
  if (name == "reset") return FaultKind::kReset;
  return Status::ParseError("unknown fault kind '" + name +
                            "' (want eio|enospc|short|torn|stall|reset)");
}

/// Parses one "<site>=<kind>@<prob>[,ms=N][,after=N][,limit=N]" entry.
Result<Rule> ParseRule(const std::string& entry) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::ParseError("fault rule '" + entry +
                              "' wants <site>=<kind>@<prob>[,opts]");
  }
  Rule rule;
  rule.site = std::string(common::Trim(entry.substr(0, eq)));
  if (!rule.site.empty() && rule.site.back() == '*') {
    rule.wildcard = true;
    rule.site.pop_back();
  }
  std::vector<std::string> fields = common::Split(entry.substr(eq + 1), ',');
  if (fields.empty()) {
    return Status::ParseError("fault rule '" + entry + "' without a fault");
  }
  size_t at = fields[0].find('@');
  if (at == std::string::npos) {
    return Status::ParseError("fault '" + fields[0] +
                              "' wants <kind>@<probability>");
  }
  auto kind = ParseKind(std::string(common::Trim(fields[0].substr(0, at))));
  if (!kind.ok()) return kind.status();
  rule.kind = *kind;
  auto prob = common::ParseDouble(fields[0].substr(at + 1));
  if (!prob.ok()) return prob.status();
  if (!(*prob >= 0.0 && *prob <= 1.0)) {
    return Status::ParseError(common::StrFormat(
        "fault probability %g outside [0, 1]", *prob));
  }
  rule.probability = *prob;
  for (size_t i = 1; i < fields.size(); ++i) {
    size_t opt_eq = fields[i].find('=');
    if (opt_eq == std::string::npos) {
      return Status::ParseError("bad fault option '" + fields[i] + "'");
    }
    std::string key = std::string(common::Trim(fields[i].substr(0, opt_eq)));
    auto value = common::ParseInt64(fields[i].substr(opt_eq + 1));
    if (!value.ok() || *value < 0) {
      return Status::ParseError("bad fault option value in '" + fields[i] +
                                "'");
    }
    if (key == "ms") {
      rule.stall_ms = static_cast<int>(*value);
    } else if (key == "after") {
      rule.after = static_cast<uint64_t>(*value);
    } else if (key == "limit") {
      rule.limit = static_cast<uint64_t>(*value);
    } else {
      return Status::ParseError("unknown fault option '" + key +
                                "' (want ms|after|limit)");
    }
  }
  return rule;
}

Result<std::unique_ptr<Schedule>> ParseSchedule(const std::string& spec) {
  auto schedule = std::make_unique<Schedule>();
  schedule->spec = spec;
  uint64_t seed = 1;
  for (const std::string& raw : common::Split(spec, ';')) {
    std::string entry = std::string(common::Trim(raw));
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      auto parsed = common::ParseInt64(entry.substr(5));
      if (!parsed.ok() || *parsed < 0) {
        return Status::ParseError("bad fault schedule seed in '" + entry +
                                  "'");
      }
      seed = static_cast<uint64_t>(*parsed);
      continue;
    }
    auto rule = ParseRule(entry);
    if (!rule.ok()) return rule.status();
    schedule->rules.push_back(std::move(*rule));
  }
  schedule->rng = Pcg32(seed, 54);
  return schedule;
}

struct Decision {
  FaultKind kind;
  int stall_ms;
};

/// One decision per call at `site`: walks the rules in order, first match
/// that fires wins. Must be called with g_mu held and g_schedule live.
std::optional<Decision> DecideLocked(const char* site) {
  Schedule& s = *g_schedule;
  SiteStats& stats = s.stats[site];
  uint64_t call = stats.calls++;
  std::string_view site_view(site);
  for (Rule& rule : s.rules) {
    bool matches = rule.wildcard
                       ? site_view.substr(0, rule.site.size()) == rule.site
                       : site_view == rule.site;
    if (!matches || call < rule.after || rule.fired >= rule.limit) continue;
    // The RNG is consulted for every armed matching rule, so the stream
    // is a deterministic function of (seed, call sequence) alone.
    if (!s.rng.NextBernoulli(rule.probability)) continue;
    ++rule.fired;
    ++stats.injected;
    ++s.injected_total;
    return Decision{rule.kind, rule.stall_ms};
  }
  return std::nullopt;
}

std::optional<Decision> Decide(const char* site) {
  std::lock_guard lock(g_mu);
  if (g_schedule == nullptr) return std::nullopt;
  return DecideLocked(site);
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(std::max(0, ms)));
}

}  // namespace

namespace internal {

std::atomic<bool> g_enabled{false};

ssize_t WriteFaulty(const char* site, int fd, const void* buf, size_t n) {
  auto decision = Decide(site);
  if (!decision) return ::write(fd, buf, n);
  switch (decision->kind) {
    case FaultKind::kEio:
      errno = EIO;
      return -1;
    case FaultKind::kEnospc:
      errno = ENOSPC;
      return -1;
    case FaultKind::kShort:
      if (n > 1) return ::write(fd, buf, n / 2);
      return ::write(fd, buf, n);
    case FaultKind::kTorn: {
      // Half the bytes land on disk, then the call fails: the torn-tail
      // shape a crash mid-write leaves behind.
      if (n > 1) (void)::write(fd, buf, n / 2);
      errno = EIO;
      return -1;
    }
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::write(fd, buf, n);
    case FaultKind::kReset:
      errno = ECONNRESET;
      return -1;
  }
  errno = EIO;
  return -1;
}

ssize_t ReadFaulty(const char* site, int fd, void* buf, size_t n) {
  auto decision = Decide(site);
  if (!decision) return ::read(fd, buf, n);
  switch (decision->kind) {
    case FaultKind::kEio:
    case FaultKind::kEnospc:
    case FaultKind::kTorn:
      errno = EIO;
      return -1;
    case FaultKind::kShort:
      return ::read(fd, buf, n > 0 ? 1 : 0);
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::read(fd, buf, n);
    case FaultKind::kReset:
      errno = ECONNRESET;
      return -1;
  }
  errno = EIO;
  return -1;
}

int FsyncFaulty(const char* site, int fd) {
  auto decision = Decide(site);
  if (!decision) return ::fsync(fd);
  switch (decision->kind) {
    case FaultKind::kEnospc:
      errno = ENOSPC;
      return -1;
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::fsync(fd);
    default:
      errno = EIO;
      return -1;
  }
}

int OpenFaulty(const char* site, const char* path, int flags) {
  auto decision = Decide(site);
  if (!decision) return ::open(path, flags);
  if (decision->kind == FaultKind::kStall) {
    SleepMs(decision->stall_ms);
    return ::open(path, flags);
  }
  errno = EIO;
  return -1;
}

ssize_t SendFaulty(const char* site, int fd, const void* buf, size_t n,
                   int flags) {
  auto decision = Decide(site);
  if (!decision) return ::send(fd, buf, n, flags);
  switch (decision->kind) {
    case FaultKind::kShort:
      if (n > 1) return ::send(fd, buf, n / 2, flags);
      return ::send(fd, buf, n, flags);
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::send(fd, buf, n, flags);
    case FaultKind::kReset:
      errno = ECONNRESET;
      return -1;
    default:
      errno = EIO;
      return -1;
  }
}

ssize_t RecvFaulty(const char* site, int fd, void* buf, size_t n,
                   int flags) {
  auto decision = Decide(site);
  if (!decision) return ::recv(fd, buf, n, flags);
  switch (decision->kind) {
    case FaultKind::kShort:
      return ::recv(fd, buf, n > 0 ? 1 : 0, flags);
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::recv(fd, buf, n, flags);
    case FaultKind::kReset:
      errno = ECONNRESET;
      return -1;
    default:
      errno = EIO;
      return -1;
  }
}

int ConnectFaulty(const char* site, int fd, const sockaddr* addr,
                  socklen_t len) {
  auto decision = Decide(site);
  if (!decision) return ::connect(fd, addr, len);
  switch (decision->kind) {
    case FaultKind::kStall:
      SleepMs(decision->stall_ms);
      return ::connect(fd, addr, len);
    case FaultKind::kReset:
      errno = ECONNREFUSED;
      return -1;
    default:
      errno = EIO;
      return -1;
  }
}

}  // namespace internal

Status InstallSchedule(const std::string& spec) {
  if (common::Trim(spec).empty()) {
    Clear();
    return Status::OK();
  }
  auto schedule = ParseSchedule(spec);
  if (!schedule.ok()) return schedule.status();
  {
    std::lock_guard lock(g_mu);
    g_schedule = std::move(*schedule);
  }
  internal::g_enabled.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status InstallFromEnv() {
  const char* spec = std::getenv("DBSHERLOCK_FAULT_SCHEDULE");
  if (spec == nullptr) return Status::OK();
  return InstallSchedule(spec);
}

void Clear() {
  internal::g_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard lock(g_mu);
  g_schedule.reset();
}

std::string ActiveSpec() {
  std::lock_guard lock(g_mu);
  return g_schedule == nullptr ? std::string() : g_schedule->spec;
}

uint64_t InjectedCount() {
  std::lock_guard lock(g_mu);
  return g_schedule == nullptr ? 0 : g_schedule->injected_total;
}

common::JsonValue StatsJson() {
  std::lock_guard lock(g_mu);
  common::JsonValue::Object out;
  if (g_schedule != nullptr) {
    for (const auto& [site, stats] : g_schedule->stats) {
      common::JsonValue::Object entry;
      entry["calls"] = static_cast<double>(stats.calls);
      entry["injected"] = static_cast<double>(stats.injected);
      out[site] = common::JsonValue(std::move(entry));
    }
  }
  return common::JsonValue(std::move(out));
}

}  // namespace dbsherlock::common::faultenv
