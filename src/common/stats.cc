#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/simd/simd.h"

namespace dbsherlock::common {

namespace {

double EntropyOfCounts(const std::vector<uint64_t>& counts, uint64_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (uint64_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  // Dispatched kernel; NaN/Inf propagate exactly like a plain loop.
  return simd::SumSpan(xs.data(), xs.size()) /
         static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  return simd::SumSquaredDiff(xs.data(), xs.size(), m) /
         static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double Median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> tmp(xs.begin(), xs.end());
  size_t mid = tmp.size() / 2;
  std::nth_element(tmp.begin(), tmp.begin() + mid, tmp.end());
  double hi = tmp[mid];
  if (tmp.size() % 2 == 1) return hi;
  double lo = *std::max_element(tmp.begin(), tmp.begin() + mid);
  return 0.5 * (lo + hi);
}

double Quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> tmp(xs.begin(), xs.end());
  std::sort(tmp.begin(), tmp.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(tmp.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, tmp.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return tmp[lo] * (1.0 - frac) + tmp[hi] * frac;
}

double Min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double Max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double MinMaxNormalize(double value, double min, double max) {
  double range = max - min;
  if (range <= 0.0) return 0.0;
  return (value - min) / range;
}

std::vector<double> MinMaxNormalize(std::span<const double> xs) {
  std::vector<double> out(xs.size());
  if (xs.empty()) return out;
  double lo = Min(xs);
  double hi = Max(xs);
  for (size_t i = 0; i < xs.size(); ++i) {
    out[i] = MinMaxNormalize(xs[i], lo, hi);
  }
  return out;
}

std::vector<double> SlidingMedian(std::span<const double> xs, size_t w) {
  std::vector<double> out;
  if (w == 0 || xs.size() < w) return out;
  out.reserve(xs.size() - w + 1);
  // One sorted copy of the window: each step erases the value that leaves
  // and inserts the one that enters, O(w) element moves. The median is
  // read with Median()'s own formula, so each entry is bit-identical to
  // Median(xs.subspan(i, w)).
  // NaN has no place in the order, and -0.0 == +0.0 makes which zero
  // Median() lands on depend on its element movement; those values stay
  // out of the sorted copy, and a window holding one goes to Median().
  auto ordered = [](double v) {
    return !std::isnan(v) && !(v == 0.0 && std::signbit(v));
  };
  std::vector<double> win;
  win.reserve(w);
  size_t unordered = 0;
  auto enter = [&](double v) {
    if (ordered(v)) {
      win.insert(std::upper_bound(win.begin(), win.end(), v), v);
    } else {
      ++unordered;
    }
  };
  auto leave = [&](double v) {
    if (ordered(v)) {
      win.erase(std::lower_bound(win.begin(), win.end(), v));
    } else {
      --unordered;
    }
  };
  for (size_t i = 0; i < w; ++i) enter(xs[i]);
  const size_t mid = w / 2;
  for (size_t i = 0;; ++i) {
    if (unordered > 0) {
      out.push_back(Median(xs.subspan(i, w)));
    } else if (w % 2 == 1) {
      out.push_back(win[mid]);
    } else {
      out.push_back(0.5 * (win[mid - 1] + win[mid]));
    }
    if (i + w == xs.size()) break;
    leave(xs[i]);
    enter(xs[i + w]);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {
  width_ = (hi_ - lo_) / static_cast<double>(counts_.size());
  if (width_ <= 0.0) width_ = 1.0;
}

size_t Histogram::BinOf(double value) const {
  if (value <= lo_) return 0;
  size_t bin = static_cast<size_t>((value - lo_) / width_);
  return std::min(bin, counts_.size() - 1);
}

void Histogram::Add(double value) {
  ++counts_[BinOf(value)];
  ++total_;
}

double Histogram::Entropy() const { return EntropyOfCounts(counts_, total_); }

JointHistogram::JointHistogram(double lo_x, double hi_x, size_t bins_x,
                               double lo_y, double hi_y, size_t bins_y)
    : lo_x_(lo_x),
      hi_x_(hi_x),
      lo_y_(lo_y),
      hi_y_(hi_y),
      bins_x_(bins_x == 0 ? 1 : bins_x),
      bins_y_(bins_y == 0 ? 1 : bins_y),
      counts_(bins_x_ * bins_y_, 0) {
  width_x_ = (hi_x_ - lo_x_) / static_cast<double>(bins_x_);
  if (width_x_ <= 0.0) width_x_ = 1.0;
  width_y_ = (hi_y_ - lo_y_) / static_cast<double>(bins_y_);
  if (width_y_ <= 0.0) width_y_ = 1.0;
}

size_t JointHistogram::BinX(double x) const {
  if (x <= lo_x_) return 0;
  return std::min(static_cast<size_t>((x - lo_x_) / width_x_), bins_x_ - 1);
}

size_t JointHistogram::BinY(double y) const {
  if (y <= lo_y_) return 0;
  return std::min(static_cast<size_t>((y - lo_y_) / width_y_), bins_y_ - 1);
}

void JointHistogram::Add(double x, double y) {
  ++counts_[BinX(x) * bins_y_ + BinY(y)];
  ++total_;
}

double JointHistogram::EntropyX() const {
  std::vector<uint64_t> marginal(bins_x_, 0);
  for (size_t i = 0; i < bins_x_; ++i) {
    for (size_t j = 0; j < bins_y_; ++j) marginal[i] += counts_[i * bins_y_ + j];
  }
  return EntropyOfCounts(marginal, total_);
}

double JointHistogram::EntropyY() const {
  std::vector<uint64_t> marginal(bins_y_, 0);
  for (size_t i = 0; i < bins_x_; ++i) {
    for (size_t j = 0; j < bins_y_; ++j) marginal[j] += counts_[i * bins_y_ + j];
  }
  return EntropyOfCounts(marginal, total_);
}

double JointHistogram::EntropyJoint() const {
  return EntropyOfCounts(counts_, total_);
}

double JointHistogram::MutualInformation() const {
  double mi = EntropyX() + EntropyY() - EntropyJoint();
  return mi < 0.0 ? 0.0 : mi;
}

double JointHistogram::IndependenceFactor() const {
  double hx = EntropyX();
  double hy = EntropyY();
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double mi = MutualInformation();
  double kappa = (mi * mi) / (hx * hy);
  return std::clamp(kappa, 0.0, 1.0);
}

double IndependenceFactor(std::span<const double> xs,
                          std::span<const double> ys, size_t bins) {
  if (xs.size() != ys.size() || xs.empty()) return 0.0;
  JointHistogram jh(Min(xs), Max(xs), bins, Min(ys), Max(ys), bins);
  for (size_t i = 0; i < xs.size(); ++i) jh.Add(xs[i], ys[i]);
  return jh.IndependenceFactor();
}

void BinaryClassificationCounts::Add(bool predicted, bool actual) {
  if (predicted && actual) {
    ++true_positives;
  } else if (predicted && !actual) {
    ++false_positives;
  } else if (!predicted && actual) {
    ++false_negatives;
  } else {
    ++true_negatives;
  }
}

double BinaryClassificationCounts::Precision() const {
  uint64_t denom = true_positives + false_positives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double BinaryClassificationCounts::Recall() const {
  uint64_t denom = true_positives + false_negatives;
  return denom == 0 ? 0.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(denom);
}

double BinaryClassificationCounts::F1() const {
  double p = Precision();
  double r = Recall();
  return (p + r) <= 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

}  // namespace dbsherlock::common
