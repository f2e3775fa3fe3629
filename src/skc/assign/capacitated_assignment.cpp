#include "skc/assign/capacitated_assignment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "skc/common/check.h"
#include "skc/geometry/metric.h"

namespace skc {

double CapacitatedAssignment::max_load() const {
  double m = 0.0;
  for (double l : loads) m = std::max(m, l);
  return m;
}

namespace {

std::vector<std::int64_t> integral_weights(const WeightedPointSet& points) {
  SKC_CHECK_MSG(points.integral_weights(),
                "capacitated assignment requires integral weights");
  std::vector<std::int64_t> w(static_cast<std::size_t>(points.size()));
  for (PointIndex i = 0; i < points.size(); ++i) {
    w[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(std::llround(points.weight(i)));
  }
  return w;
}

/// Exact transportation solver for few sinks: minimizes sum f(q,j) c(q,j)
/// subject to sum_j f(q,j) = w_q and sum_q f(q,j) <= cap_j.
///
/// Successive shortest paths with one source at a time: point p's supply is
/// routed along shortest paths of the residual graph condensed onto the k
/// centers.  A residual move j -> j' goes through a point q with f(q,j) > 0
/// and costs c(q,j') - c(q,j); that key never changes while q holds flow on
/// j, so one lazy-deletion min-heap per ordered center pair keeps the
/// cheapest move (entries whose f(q,j) dropped to 0 are popped at the top).
/// Each path is an O(k^2) Dijkstra over the centers with Johnson potentials,
/// ending at the nearest center with spare capacity; it carries the
/// bottleneck of p's remaining supply, that spare capacity and the moved
/// flows.  Augmenting along shortest paths keeps the residual graph free of
/// negative cycles, so the final flow is optimal for the given supplies.
class Transport {
 public:
  Transport(const WeightedPointSet& points, const PointSet& centers,
            const std::vector<std::int64_t>& center_cap, LrOrder r)
      : k_(static_cast<std::size_t>(centers.size())),
        cost_(static_cast<std::size_t>(points.size()) * k_),
        flow_(cost_.size(), 0),
        spare_(center_cap),
        potential_(k_, 0.0),
        moves_(k_ * k_),
        dist_(k_),
        prev_center_(k_),
        prev_point_(k_),
        settled_(k_) {
    for (PointIndex q = 0; q < points.size(); ++q) {
      for (std::size_t j = 0; j < k_; ++j) {
        cost_[at(q, j)] = dist_pow(points.point(q), centers[static_cast<PointIndex>(j)], r);
      }
    }
  }

  std::vector<std::int64_t> take_flow() && { return std::move(flow_); }

  /// Routes all of p's supply.  Requires total supply <= total capacity.
  void route(PointIndex p, std::int64_t supply) {
    while (supply > 0) {
      shortest_paths(p);
      // Nearest center with spare capacity, by true path cost.
      std::size_t end = k_;
      double best = kInfCost;
      for (std::size_t j = 0; j < k_; ++j) {
        if (spare_[j] > 0 && dist_[j] + potential_[j] < best) {
          best = dist_[j] + potential_[j];
          end = j;
        }
      }
      SKC_CHECK(end < k_);
      for (std::size_t j = 0; j < k_; ++j) potential_[j] += dist_[j];

      std::int64_t push = std::min(supply, spare_[end]);
      std::size_t v = end;
      for (; prev_center_[v] != k_; v = prev_center_[v]) {
        push = std::min(push, flow(prev_point_[v], prev_center_[v]));
      }
      SKC_CHECK(push > 0);
      for (v = end; prev_center_[v] != k_; v = prev_center_[v]) {
        add_flow(prev_point_[v], prev_center_[v], -push);
        add_flow(prev_point_[v], v, push);
      }
      add_flow(p, v, push);
      spare_[end] -= push;
      supply -= push;
    }
  }

 private:
  using Move = std::pair<double, PointIndex>;  // (c(q,j') - c(q,j), q)

  std::size_t at(PointIndex q, std::size_t j) const {
    return static_cast<std::size_t>(q) * k_ + j;
  }
  double cost(PointIndex q, std::size_t j) const { return cost_[at(q, j)]; }
  std::int64_t flow(PointIndex q, std::size_t j) const { return flow_[at(q, j)]; }

  void add_flow(PointIndex q, std::size_t j, std::int64_t delta) {
    std::int64_t& f = flow_[at(q, j)];
    const bool was_empty = f == 0;
    f += delta;
    if (!was_empty || f == 0) return;
    // q now holds flow on j: it offers a move j -> x to every other center.
    for (std::size_t x = 0; x < k_; ++x) {
      if (x == j) continue;
      std::vector<Move>& heap = moves_[j * k_ + x];
      heap.emplace_back(cost(q, x) - cost(q, j), q);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  }

  /// Cheapest live move from -> to, or nullptr.
  const Move* cheapest_move(std::size_t from, std::size_t to) {
    std::vector<Move>& heap = moves_[from * k_ + to];
    while (!heap.empty() && flow(heap.front().second, from) == 0) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      heap.pop_back();
    }
    return heap.empty() ? nullptr : &heap.front();
  }

  /// Dijkstra from p over the centers; dist_ holds reduced distances.
  void shortest_paths(PointIndex p) {
    for (std::size_t j = 0; j < k_; ++j) {
      dist_[j] = cost(p, j) - potential_[j];
      prev_center_[j] = k_;  // k_ = reached directly from p
      settled_[j] = false;
    }
    for (std::size_t round = 0; round < k_; ++round) {
      std::size_t u = k_;
      for (std::size_t j = 0; j < k_; ++j) {
        if (!settled_[j] && (u == k_ || dist_[j] < dist_[u])) u = j;
      }
      settled_[u] = true;
      for (std::size_t v = 0; v < k_; ++v) {
        if (settled_[v]) continue;
        const Move* move = cheapest_move(u, v);
        if (move == nullptr) continue;
        // Reduced cost; clamp tiny negative values from floating-point noise.
        const double rc = std::max(0.0, move->first + potential_[u] - potential_[v]);
        if (dist_[u] + rc < dist_[v]) {
          dist_[v] = dist_[u] + rc;
          prev_center_[v] = u;
          prev_point_[v] = move->second;
        }
      }
    }
  }

  std::size_t k_;
  std::vector<double> cost_;        // c(q,j), row-major by point
  std::vector<std::int64_t> flow_;  // f(q,j)
  std::vector<std::int64_t> spare_;  // cap_j - load_j
  std::vector<double> potential_;
  std::vector<std::vector<Move>> moves_;  // min-heap per ordered (j, j')
  std::vector<double> dist_;
  std::vector<std::size_t> prev_center_;
  std::vector<PointIndex> prev_point_;
  std::vector<char> settled_;
};

CapacitatedAssignment solve_flow(const WeightedPointSet& points,
                                 const PointSet& centers,
                                 const std::vector<std::int64_t>& center_cap,
                                 LrOrder r) {
  const PointIndex n = points.size();
  const std::size_t k = static_cast<std::size_t>(centers.size());
  CapacitatedAssignment out;
  out.assignment.assign(static_cast<std::size_t>(n), kUnassigned);
  out.loads.assign(k, 0.0);
  const std::optional<std::vector<std::int64_t>> flow =
      optimal_transport_flow(points, centers, center_cap, r);
  if (!flow) return out;  // infeasible by counting

  out.feasible = true;
  out.cost = 0.0;
  for (PointIndex i = 0; i < n; ++i) {
    // An optimal transportation basis splits at most k-1 points across two
    // centers; each point is labeled with the center carrying the plurality
    // of its weight while the cost/loads account the true (split) flow.
    std::int64_t best_flow = -1;
    for (std::size_t j = 0; j < k; ++j) {
      const std::int64_t f = (*flow)[static_cast<std::size_t>(i) * k + j];
      if (f > 0) {
        out.loads[j] += static_cast<double>(f);
        out.cost += static_cast<double>(f) *
                    dist_pow(points.point(i), centers[static_cast<PointIndex>(j)], r);
        if (f > best_flow) {
          best_flow = f;
          out.assignment[static_cast<std::size_t>(i)] = static_cast<CenterIndex>(j);
        }
      }
    }
  }
  return out;
}

}  // namespace

std::optional<std::vector<std::int64_t>> optimal_transport_flow(
    const WeightedPointSet& points, const PointSet& centers,
    const std::vector<std::int64_t>& capacity, LrOrder r) {
  SKC_CHECK(static_cast<PointIndex>(capacity.size()) == centers.size());
  for (const std::int64_t c : capacity) SKC_CHECK(c >= 0);
  const std::vector<std::int64_t> w = integral_weights(points);
  const std::int64_t total =
      std::accumulate(w.begin(), w.end(), std::int64_t{0});
  const std::int64_t cap_total =
      std::accumulate(capacity.begin(), capacity.end(), std::int64_t{0});
  if (total > cap_total) return std::nullopt;

  Transport transport(points, centers, capacity, r);
  for (PointIndex i = 0; i < points.size(); ++i) {
    transport.route(i, w[static_cast<std::size_t>(i)]);
  }
  return std::move(transport).take_flow();
}

CapacitatedAssignment optimal_capacitated_assignment(const WeightedPointSet& points,
                                                     const PointSet& centers,
                                                     double t, LrOrder r) {
  SKC_CHECK(!centers.empty());
  SKC_CHECK(centers.dim() == points.dim() || points.empty());
  // A capacity above the total weight never binds; clamping it keeps the
  // integer conversion and the capacity sum in range for any t (NaN -> 0).
  const double cap = std::min(std::floor(t + 1e-9), points.total_weight());
  std::vector<std::int64_t> caps(static_cast<std::size_t>(centers.size()),
                                 cap > 0.0 ? static_cast<std::int64_t>(cap) : 0);
  return solve_flow(points, centers, caps, r);
}

CapacitatedAssignment exact_size_assignment(const WeightedPointSet& points,
                                            const PointSet& centers,
                                            const std::vector<std::int64_t>& sizes,
                                            LrOrder r) {
  SKC_CHECK(static_cast<PointIndex>(sizes.size()) == centers.size());
  const double total = points.total_weight();
  const std::int64_t size_sum =
      std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0});
  SKC_CHECK_MSG(std::llround(total) == size_sum,
                "prescribed sizes must sum to the total weight");
  return solve_flow(points, centers, sizes, r);
}

}  // namespace skc
