#include "core/dbscan.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/simd/simd.h"

namespace dbsherlock::core {

namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

std::vector<size_t> Neighbors(const std::vector<std::vector<double>>& points,
                              size_t p, double eps_sq) {
  std::vector<size_t> out;
  for (size_t q = 0; q < points.size(); ++q) {
    if (q != p && SquaredDistance(points[p], points[q]) <= eps_sq) {
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace

std::vector<size_t> DbscanResult::ClusterSizes() const {
  std::vector<size_t> sizes(static_cast<size_t>(num_clusters), 0);
  for (int c : cluster_of) {
    if (c >= 0) ++sizes[static_cast<size_t>(c)];
  }
  return sizes;
}

DbscanResult Dbscan(const std::vector<std::vector<double>>& points,
                    double eps, int min_pts) {
  DbscanResult result;
  const size_t n = points.size();
  constexpr int kUnvisited = -2;
  constexpr int kNoise = -1;
  result.cluster_of.assign(n, kUnvisited);
  double eps_sq = eps * eps;
  int cluster = 0;

  for (size_t p = 0; p < n; ++p) {
    if (result.cluster_of[p] != kUnvisited) continue;
    std::vector<size_t> seeds = Neighbors(points, p, eps_sq);
    // A core point has at least min_pts points in its eps-ball, itself
    // included.
    if (static_cast<int>(seeds.size()) + 1 < min_pts) {
      result.cluster_of[p] = kNoise;
      continue;
    }
    result.cluster_of[p] = cluster;
    std::deque<size_t> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      size_t q = queue.front();
      queue.pop_front();
      if (result.cluster_of[q] == kNoise) {
        result.cluster_of[q] = cluster;  // border point
      }
      if (result.cluster_of[q] != kUnvisited) continue;
      result.cluster_of[q] = cluster;
      std::vector<size_t> q_neighbors = Neighbors(points, q, eps_sq);
      if (static_cast<int>(q_neighbors.size()) + 1 >= min_pts) {
        for (size_t r : q_neighbors) queue.push_back(r);
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  return result;
}

std::vector<double> KDistances(const std::vector<std::vector<double>>& points,
                               int k) {
  const size_t n = points.size();
  std::vector<double> out(n, 0.0);
  if (k <= 0) return out;
  for (size_t p = 0; p < n; ++p) {
    std::vector<double> dists;
    dists.reserve(n - 1);
    for (size_t q = 0; q < n; ++q) {
      if (q != p) dists.push_back(SquaredDistance(points[p], points[q]));
    }
    if (dists.empty()) continue;
    size_t rank = std::min<size_t>(static_cast<size_t>(k) - 1,
                                   dists.size() - 1);
    std::nth_element(dists.begin(), dists.begin() + rank, dists.end());
    out[p] = std::sqrt(dists[rank]);
  }
  return out;
}

namespace {

/// Batch neighbor query: one kernel sweep fills `dist_sq` with point p's
/// squared distances to every point, then the eps-ball is read off the
/// buffer into `out` (self excluded by index, exactly like the row-major
/// form).
void NeighborsColumns(const PointColumns& points, size_t p, double eps_sq,
                      std::vector<double>* dist_sq, std::vector<size_t>* out) {
  common::simd::SquaredDistancesToAll(points.columns.data(), points.dims(),
                                      points.num_points, p, dist_sq->data());
  out->clear();
  for (size_t q = 0; q < points.num_points; ++q) {
    if (q != p && (*dist_sq)[q] <= eps_sq) out->push_back(q);
  }
}

}  // namespace

DbscanResult Dbscan(const PointColumns& points, double eps, int min_pts) {
  DbscanResult result;
  const size_t n = points.num_points;
  constexpr int kQueued = -3;
  constexpr int kUnvisited = -2;
  constexpr int kNoise = -1;
  result.cluster_of.assign(n, kUnvisited);
  double eps_sq = eps * eps;
  int cluster = 0;
  std::vector<double> dist_sq(n, 0.0);
  std::vector<size_t> neighbors;
  std::vector<size_t> queue;
  // Each point enters a cluster's queue once, when first seen: unvisited
  // points are marked queued, noise points become border points of the
  // cluster on the spot. The row-major form pushes every neighbor of every
  // core point and skips repeats when popping them; those skips were the
  // only effect of its pop-time checks, so the labels are the same.
  auto enqueue_neighbors = [&] {
    for (size_t r : neighbors) {
      int& label = result.cluster_of[r];
      if (label == kUnvisited) {
        label = kQueued;
        queue.push_back(r);
      } else if (label == kNoise) {
        label = cluster;  // border point
      }
    }
  };

  for (size_t p = 0; p < n; ++p) {
    if (result.cluster_of[p] != kUnvisited) continue;
    NeighborsColumns(points, p, eps_sq, &dist_sq, &neighbors);
    if (static_cast<int>(neighbors.size()) + 1 < min_pts) {
      result.cluster_of[p] = kNoise;
      continue;
    }
    result.cluster_of[p] = cluster;
    queue.clear();
    enqueue_neighbors();
    for (size_t head = 0; head < queue.size(); ++head) {
      size_t q = queue[head];
      result.cluster_of[q] = cluster;
      NeighborsColumns(points, q, eps_sq, &dist_sq, &neighbors);
      if (static_cast<int>(neighbors.size()) + 1 >= min_pts) {
        enqueue_neighbors();
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  return result;
}

std::vector<double> KDistances(const PointColumns& points, int k) {
  const size_t n = points.num_points;
  std::vector<double> out(n, 0.0);
  if (k <= 0 || n < 2) return out;
  // The k-th nearest other point is the last of the min(k, n-1) smallest
  // distances, kept in a sorted buffer of that size: almost every distance
  // costs one compare. Equal distances are equal bits, so which one fills a
  // slot does not matter. Self is excluded by index (its computed distance
  // is exactly 0, but dropping it by value would also drop genuine
  // duplicate points and shift the k-dist rank).
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), n - 1);
  std::vector<double> dist_sq(n, 0.0);
  std::vector<double> nearest;
  nearest.reserve(keep);
  for (size_t p = 0; p < n; ++p) {
    common::simd::SquaredDistancesToAll(points.columns.data(), points.dims(),
                                        n, p, dist_sq.data());
    nearest.clear();
    for (size_t q = 0; q < n; ++q) {
      if (q == p) continue;
      double d = dist_sq[q];
      if (nearest.size() == keep) {
        if (!(d < nearest.back())) continue;
        nearest.pop_back();
      }
      nearest.insert(std::upper_bound(nearest.begin(), nearest.end(), d), d);
    }
    out[p] = std::sqrt(nearest.back());
  }
  return out;
}

}  // namespace dbsherlock::core
