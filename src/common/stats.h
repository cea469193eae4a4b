#ifndef DBSHERLOCK_COMMON_STATS_H_
#define DBSHERLOCK_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dbsherlock::common {

/// Arithmetic mean; 0 for an empty span.
double Mean(std::span<const double> xs);

/// Population variance; 0 for fewer than 2 elements.
double Variance(std::span<const double> xs);

/// Population standard deviation.
double StdDev(std::span<const double> xs);

/// Median (copies the data; average of middle pair for even sizes).
/// Returns 0 for an empty span.
double Median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0,1]. Returns 0 for an empty span.
double Quantile(std::span<const double> xs, double q);

double Min(std::span<const double> xs);
double Max(std::span<const double> xs);

/// Min-max normalization of a single value into [0,1]. When max == min the
/// result is 0 (the paper's Eq. 2 is undefined there; a constant column has
/// no separation power anyway).
double MinMaxNormalize(double value, double min, double max);

/// Min-max normalizes a whole column (Eq. 2 of the paper).
std::vector<double> MinMaxNormalize(std::span<const double> xs);

/// Sliding-window medians of window size `w` (the median filter used by the
/// potential-power computation of Section 7). Output has
/// max(0, xs.size() - w + 1) entries; entry i is bit-identical to
/// Median(xs.subspan(i, w)). O(n * w) for the whole series.
std::vector<double> SlidingMedian(std::span<const double> xs, size_t w);

/// A fixed-width 1-D histogram over [lo, hi] with `bins` buckets. Values
/// outside the range clamp to the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double value);
  size_t BinOf(double value) const;
  size_t bins() const { return counts_.size(); }
  uint64_t count(size_t bin) const { return counts_[bin]; }
  uint64_t total() const { return total_; }

  /// Shannon entropy (natural log) of the empirical bin distribution.
  double Entropy() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// A 2-D joint histogram used by the mutual-information independence test of
/// Section 5. Both axes are fixed-width over their own [lo, hi].
class JointHistogram {
 public:
  JointHistogram(double lo_x, double hi_x, size_t bins_x, double lo_y,
                 double hi_y, size_t bins_y);

  void Add(double x, double y);
  uint64_t total() const { return total_; }

  /// Marginal entropies H(X), H(Y) and joint entropy H(X,Y), natural log.
  double EntropyX() const;
  double EntropyY() const;
  double EntropyJoint() const;

  /// Mutual information MI(X,Y) = H(X) + H(Y) - H(X,Y); clamped at >= 0.
  double MutualInformation() const;

  /// The paper's independence factor κ = MI² / (H(X)·H(Y)). 0 when either
  /// marginal entropy is 0 (a constant attribute carries no dependence
  /// evidence). Clamped into [0, 1].
  double IndependenceFactor() const;

 private:
  size_t BinX(double x) const;
  size_t BinY(double y) const;

  double lo_x_, hi_x_, width_x_;
  double lo_y_, hi_y_, width_y_;
  size_t bins_x_, bins_y_;
  std::vector<uint64_t> counts_;  // bins_x_ * bins_y_, row-major in x.
  uint64_t total_ = 0;
};

/// Computes κ(X, Y) for two equally sized columns by discretizing each with
/// `bins` equi-width bins over its own observed range (Section 5; the paper
/// uses γ bins per attribute). Returns 0 when sizes mismatch or are empty.
double IndependenceFactor(std::span<const double> xs,
                          std::span<const double> ys, size_t bins);

/// Precision / recall / F1 over binary decisions.
struct BinaryClassificationCounts {
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  uint64_t true_negatives = 0;
  uint64_t false_negatives = 0;

  void Add(bool predicted, bool actual);
  double Precision() const;
  double Recall() const;
  double F1() const;
};

}  // namespace dbsherlock::common

#endif  // DBSHERLOCK_COMMON_STATS_H_
