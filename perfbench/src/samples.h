#ifndef PERFBENCH_SAMPLES_H_
#define PERFBENCH_SAMPLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// How the benchmark reports a timing: the median and a tail percentile,
/// with the number of samples both were taken from. The tail is the
/// highest percentile, no higher than the one the metric is named after,
/// that still has at least ten samples beyond it; with too few samples for
/// the named percentile the report says which one it fell back to.
struct Summary {
  size_t count = 0;
  double median = 0.0;
  double tail_percentile = 0.0;  // 99 for p99; 50 when under 20 samples
  double tail = 0.0;
};

/// Samples a percentile needs beyond it before the tail may use it.
inline constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank percentile, 0 < p <= 100, of an ascending non-empty vector:
/// the value at 1-based rank ceil(p/100 * n).
double NearestRank(const std::vector<double>& sorted, double p);

/// Median and tail of `samples` (any order). `wanted_percentile` is the
/// tail the metric is named after (99 for *_p99_ms). Empty input gives a
/// zero Summary.
Summary Summarize(std::vector<double> samples, double wanted_percentile);

/// Median of `samples`; 0 for none.
double Median(std::vector<double> samples);

/// A timing taken at `at_s` (when the operation was sent, or due).
struct TimedSample {
  double at_s = 0.0;
  double value = 0.0;
};

/// Summarize with the tail taken per consecutive `window_s` window of
/// sample times: the tail is the median of the tails of the windows that
/// hold at least `min_window_count` samples, tail_percentile the lowest
/// any window used. A stall that happens once in a run then moves one
/// window's tail, not the run's. The median and count are over every
/// sample (a median is robust to a stall already; small windows would only
/// add noise to it). Falls back to Summarize's tail when no window is full
/// enough.
Summary WindowedSummary(const std::vector<TimedSample>& samples, double window_s,
                        size_t min_window_count, double wanted_percentile);

/// Fixed-rate open-loop schedule: operation k is due at
/// start + k / rate, whatever happened to earlier operations. Latency is
/// charged from the due time, so a stall also counts the wait it imposes on
/// every operation queued behind it; lateness (send minus due) says how far
/// behind the generator itself ran.
class OpenLoopSchedule {
 public:
  /// `start_s` and the times passed to Record share one clock (seconds).
  OpenLoopSchedule(double start_s, double rate_per_s);

  double DueAt(uint64_t k) const;

  /// Records operation k sent at `sent_s` and acknowledged at `acked_s`;
  /// returns its latency from due time in seconds.
  double Record(uint64_t k, double sent_s, double acked_s);

  /// Per operation, seconds: ack minus due, and send minus due (>= 0).
  const std::vector<double>& latencies() const { return latencies_; }
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  double start_s_;
  double interval_s_;
  std::vector<double> latencies_;
  std::vector<double> lateness_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLES_H_
