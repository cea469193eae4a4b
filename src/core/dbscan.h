#ifndef DBSHERLOCK_CORE_DBSCAN_H_
#define DBSHERLOCK_CORE_DBSCAN_H_

#include <cstddef>
#include <vector>

namespace dbsherlock::core {

/// Result of a DBSCAN run: cluster id per point (-1 for noise) and the
/// number of clusters found.
struct DbscanResult {
  std::vector<int> cluster_of;  // -1 = noise
  int num_clusters = 0;

  /// Sizes of each cluster, indexed by cluster id.
  std::vector<size_t> ClusterSizes() const;
};

/// Density-based clustering (Ester et al., KDD'96), Euclidean metric,
/// O(n^2) neighbor search — ample for the per-dataset row counts DBSherlock
/// handles. `points` is row-major: points[i] is the i-th point; all points
/// must share the same dimension.
DbscanResult Dbscan(const std::vector<std::vector<double>>& points,
                    double eps, int min_pts);

/// Distance of each point to its k-th nearest *other* neighbor — the
/// k-dist list the paper uses to pick epsilon (eps = max(Lk) / 4).
std::vector<double> KDistances(const std::vector<std::vector<double>>& points,
                               int k);

/// Dimension-major view of a point set: columns[k][q] is coordinate k of
/// point q, each column `num_points` long. This is the layout the anomaly
/// detector already holds its selected attributes in, and the layout the
/// dispatched SquaredDistancesToAll kernel streams — no per-point gather.
struct PointColumns {
  std::vector<const double*> columns;
  size_t num_points = 0;

  size_t dims() const { return columns.size(); }
};

/// Batch forms over the dimension-major layout: one kernel sweep computes
/// a query point's distances to all points. Same arithmetic per point pair
/// (coordinates accumulate in dimension order) as the row-major forms, so
/// on NaN-free points (the detector fills non-finite cells) k-distances and
/// clusterings are bit-identical to them.
DbscanResult Dbscan(const PointColumns& points, double eps, int min_pts);
std::vector<double> KDistances(const PointColumns& points, int k);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_DBSCAN_H_
