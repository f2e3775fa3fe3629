// Optimal capacitated assignment of weighted points to fixed centers.
//
// Computes cost_t^{(r)}(Q, Z, w): the minimum-cost partition of Q into k
// clusters with per-cluster weight at most t (Section 2 of the paper).
// With integral weights (which this library guarantees for its coresets)
// the transportation LP has an integral optimum, realized exactly by the
// min-cost flow of §3.3.  The flow is solved by a transportation solver
// specialized to few sinks: successive shortest paths over the k centers,
// O(n k log n + augmentations * k^2) instead of a general min-cost flow over
// n + k nodes and n k edges.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "skc/common/types.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"

namespace skc {

struct CapacitatedAssignment {
  bool feasible = false;
  /// Per-point assigned center (kUnassigned iff infeasible).
  std::vector<CenterIndex> assignment;
  /// Total cost sum_p w(p) dist(p, pi(p))^r; kInfCost iff infeasible.
  double cost = kInfCost;
  /// Per-center assigned weight.
  std::vector<double> loads;

  double max_load() const;
};

/// The optimal integral transportation flow itself: flow[i * k + j] units of
/// point i's weight go to center j; row i sums to w(i) and column j to at
/// most capacity[j].  nullopt iff the total weight exceeds the total
/// capacity.  Weights must be integral.  The assignments below are
/// plurality labelings of this flow.
std::optional<std::vector<std::int64_t>> optimal_transport_flow(
    const WeightedPointSet& points, const PointSet& centers,
    const std::vector<std::int64_t>& capacity, LrOrder r);

/// Exact optimal assignment under capacity `t` per center.  Weights must be
/// integral (SKC_CHECK enforced); `t` is floored to an integer capacity.
CapacitatedAssignment optimal_capacitated_assignment(const WeightedPointSet& points,
                                                     const PointSet& centers,
                                                     double t, LrOrder r);

/// Exact minimum-cost assignment whose per-center loads equal exactly the
/// prescribed `sizes` (step 1b of the §3.3 canonicalization procedure).
/// sum(sizes) must equal the total weight.
CapacitatedAssignment exact_size_assignment(const WeightedPointSet& points,
                                            const PointSet& centers,
                                            const std::vector<std::int64_t>& sizes,
                                            LrOrder r);

}  // namespace skc
