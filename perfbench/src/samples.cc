#include "samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

Summary Summarize(std::vector<double> samples, double wanted_percentile) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.median = NearestRank(samples, 50.0);
  out.tail_percentile = 50.0;
  out.tail = out.median;
  // Percentiles a tail may fall back to, highest first.
  constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                90.0, 80.0, 75.0};
  double n = static_cast<double>(samples.size());
  for (double p : kLadder) {
    if (p > wanted_percentile) continue;
    double beyond = n - std::ceil(p / 100.0 * n);
    if (beyond >= static_cast<double>(kTailSamplesBeyond)) {
      out.tail_percentile = p;
      out.tail = NearestRank(samples, p);
      break;
    }
  }
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, 50.0);
}

Summary WindowedSummary(const std::vector<TimedSample>& samples, double window_s,
                        size_t min_window_count, double wanted_percentile) {
  std::vector<double> all;
  all.reserve(samples.size());
  double first = samples.empty() ? 0.0 : samples.front().at_s;
  for (const TimedSample& s : samples) {
    all.push_back(s.value);
    first = std::min(first, s.at_s);
  }
  std::vector<std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    size_t w = static_cast<size_t>((s.at_s - first) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.value);
  }
  std::vector<double> tails;
  double tail_percentile = wanted_percentile;
  for (std::vector<double>& window : windows) {
    if (window.size() < min_window_count) continue;
    Summary s = Summarize(std::move(window), wanted_percentile);
    tails.push_back(s.tail);
    tail_percentile = std::min(tail_percentile, s.tail_percentile);
  }
  Summary out = Summarize(std::move(all), wanted_percentile);
  if (tails.empty()) return out;
  out.tail = Median(std::move(tails));
  out.tail_percentile = tail_percentile;
  return out;
}

OpenLoopSchedule::OpenLoopSchedule(double start_s, double rate_per_s)
    : start_s_(start_s), interval_s_(1.0 / rate_per_s) {}

double OpenLoopSchedule::DueAt(uint64_t k) const {
  return start_s_ + static_cast<double>(k) * interval_s_;
}

double OpenLoopSchedule::Record(uint64_t k, double sent_s, double acked_s) {
  double due = DueAt(k);
  double latency = acked_s - due;
  latencies_.push_back(latency);
  lateness_.push_back(std::max(0.0, sent_s - due));
  return latency;
}

}  // namespace perfbench
