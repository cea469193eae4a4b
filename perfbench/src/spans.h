#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace perfbench {

/// Seconds on the monotonic clock every benchmark timing uses.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. Spans of one operation (an EXPLAINQ
/// statement, one appended row) share `op`; `parent` names the span that
/// caused this one ("" for an operation's root).
struct Span {
  uint64_t op = 0;
  std::string name;
  std::string parent;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span recorder, written out once when the benchmark ends.
/// Thread-safe.
class SpanLog {
 public:
  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  void Add(Span span) {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Runs `fn`, records its span, and returns what it returned.
  template <typename Fn>
  auto Time(uint64_t op, const std::string& name, const std::string& parent,
            Fn&& fn) {
    double start = NowSeconds();
    auto result = fn();
    Add({op, name, parent, start, NowSeconds()});
    return result;
  }

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard lock(mu_);
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.end_s - span.start_s);
    }
    return out;
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  dbsherlock::common::JsonValue ToJson() const {
    std::lock_guard lock(mu_);
    dbsherlock::common::JsonValue::Array out;
    out.reserve(spans_.size());
    for (const Span& span : spans_) {
      dbsherlock::common::JsonValue::Object entry;
      entry["op"] = static_cast<double>(span.op);
      entry["name"] = span.name;
      if (!span.parent.empty()) entry["parent"] = span.parent;
      entry["start_us"] = span.start_s * 1e6;
      entry["dur_us"] = (span.end_s - span.start_s) * 1e6;
      out.push_back(dbsherlock::common::JsonValue(std::move(entry)));
    }
    return dbsherlock::common::JsonValue(std::move(out));
  }

 private:
  std::atomic<uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
