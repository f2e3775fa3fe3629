#include "skc/assign/capacitated_assignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "skc/flow/mcmf.h"
#include "skc/geometry/metric.h"
#include "skc/solve/brute_force.h"
#include "skc/solve/cost.h"
#include "test_util.h"

namespace skc {
namespace {

TEST(CapacitatedAssignment, UnconstrainedEqualsNearest) {
  Rng rng(1);
  PointSet pts = testutil::random_points(2, 64, 20, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const auto a = optimal_capacitated_assignment(w, centers, 1e9, LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  EXPECT_NEAR(a.cost, uncapacitated_cost(w, centers, LrOrder{2.0}), 1e-6);
}

TEST(CapacitatedAssignment, InfeasibleWhenCapacityTooSmall) {
  Rng rng(2);
  PointSet pts = testutil::random_points(2, 32, 10, rng);
  PointSet centers = testutil::random_points(2, 32, 2, rng);
  const auto a = optimal_capacitated_assignment(WeightedPointSet::unit(pts), centers,
                                                4.0, LrOrder{2.0});
  EXPECT_FALSE(a.feasible);  // 10 points, 2 centers x cap 4 = 8 < 10
  EXPECT_EQ(a.cost, kInfCost);
}

TEST(CapacitatedAssignment, TightCapacityBalancesExactly) {
  Rng rng(3);
  PointSet pts = testutil::random_points(2, 256, 12, rng);
  PointSet centers = testutil::random_points(2, 256, 3, rng);
  const auto a = optimal_capacitated_assignment(WeightedPointSet::unit(pts), centers,
                                                4.0, LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  for (double load : a.loads) EXPECT_DOUBLE_EQ(load, 4.0);
}

TEST(CapacitatedAssignment, CapacityBindsCostMonotonically) {
  Rng rng(4);
  PointSet pts = testutil::random_points(2, 128, 15, rng);
  PointSet centers = testutil::random_points(2, 128, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  double prev = kInfCost;
  for (double t : {5.0, 6.0, 8.0, 15.0}) {
    const auto a = optimal_capacitated_assignment(w, centers, t, LrOrder{2.0});
    ASSERT_TRUE(a.feasible);
    EXPECT_LE(a.cost, prev + 1e-9);  // looser capacity never costs more
    prev = a.cost;
  }
}

TEST(CapacitatedAssignment, WeightedLoadsRespectCapacity) {
  WeightedPointSet pts(1);
  const std::vector<Coord> p1 = {1}, p2 = {2}, p3 = {100};
  pts.push_back(p1, 3.0);
  pts.push_back(p2, 2.0);
  pts.push_back(p3, 4.0);
  PointSet centers(1);
  centers.push_back({1});
  centers.push_back({100});
  const auto a = optimal_capacitated_assignment(pts, centers, 5.0, LrOrder{1.0});
  ASSERT_TRUE(a.feasible);
  for (double load : a.loads) EXPECT_LE(load, 5.0 + 1e-9);
  EXPECT_DOUBLE_EQ(a.loads[0] + a.loads[1], 9.0);
}

TEST(CapacitatedAssignment, RejectsFractionalWeights) {
  WeightedPointSet pts(1);
  const std::vector<Coord> p = {1};
  pts.push_back(p, 1.5);
  PointSet centers(1);
  centers.push_back({1});
  EXPECT_DEATH(optimal_capacitated_assignment(pts, centers, 10, LrOrder{2.0}), "");
}

class AssignmentVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(AssignmentVsBruteForce, FlowMatchesExhaustiveSearch) {
  const auto [n, k, r] = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + n * 7 + k * 3 + static_cast<int>(r)));
  for (int trial = 0; trial < 5; ++trial) {
    PointSet pts = testutil::random_points(2, 64, n, rng);
    PointSet centers = testutil::random_points(2, 64, k, rng);
    const WeightedPointSet w = WeightedPointSet::unit(pts);
    const double t = tight_capacity(static_cast<double>(n), k) + trial;  // sweep slack
    const auto flow = optimal_capacitated_assignment(w, centers, t, LrOrder{r});
    const double brute = brute_force_capacitated_cost(w, centers, t, LrOrder{r});
    ASSERT_TRUE(flow.feasible);
    EXPECT_NEAR(flow.cost, brute, 1e-6 * std::max(1.0, brute))
        << "n=" << n << " k=" << k << " r=" << r << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, AssignmentVsBruteForce,
    ::testing::Combine(::testing::Values(6, 9, 12), ::testing::Values(2, 3),
                       ::testing::Values(1.0, 2.0, 3.0)));

TEST(ExactSizeAssignment, HitsPrescribedSizes) {
  Rng rng(7);
  PointSet pts = testutil::random_points(2, 64, 10, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const std::vector<std::int64_t> sizes = {2, 3, 5};
  const auto a = exact_size_assignment(WeightedPointSet::unit(pts), centers, sizes,
                                       LrOrder{2.0});
  ASSERT_TRUE(a.feasible);
  EXPECT_DOUBLE_EQ(a.loads[0], 2.0);
  EXPECT_DOUBLE_EQ(a.loads[1], 3.0);
  EXPECT_DOUBLE_EQ(a.loads[2], 5.0);
}

TEST(ExactSizeAssignment, CostAtLeastCapacitatedOptimum) {
  Rng rng(8);
  PointSet pts = testutil::random_points(2, 64, 9, rng);
  PointSet centers = testutil::random_points(2, 64, 3, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const auto fixed = exact_size_assignment(w, centers, {3, 3, 3}, LrOrder{2.0});
  const auto capped = optimal_capacitated_assignment(w, centers, 3.0, LrOrder{2.0});
  ASSERT_TRUE(fixed.feasible);
  ASSERT_TRUE(capped.feasible);
  // Capacity 3 forces sizes exactly (3,3,3) here, so costs must match.
  EXPECT_NEAR(fixed.cost, capped.cost, 1e-6);
}

// --------------------------------------------------------------------------
// The few-sink transportation solver against the general min-cost max-flow
// (source -> point -> center -> sink) it replaced, on seeded random
// instances for every k in 1..8 and r in {1, 2, 3}.

struct Reference {
  bool feasible = false;
  double cost = kInfCost;
};

Reference min_cost_flow_reference(const WeightedPointSet& points,
                                  const PointSet& centers,
                                  const std::vector<std::int64_t>& caps, LrOrder r) {
  const int n = static_cast<int>(points.size());
  const int k = static_cast<int>(centers.size());
  MinCostMaxFlow flow(n + k + 2);
  const int source = 0;
  const int sink = n + k + 1;
  std::int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    const auto w = static_cast<std::int64_t>(std::llround(points.weight(i)));
    total += w;
    flow.add_edge(source, i + 1, w, 0.0);
    for (int j = 0; j < k; ++j) {
      flow.add_edge(i + 1, n + 1 + j, w, dist_pow(points.point(i), centers[j], r));
    }
  }
  for (int j = 0; j < k; ++j) {
    flow.add_edge(n + 1 + j, sink, caps[static_cast<std::size_t>(j)], 0.0);
  }
  const MinCostMaxFlow::Result res = flow.solve(source, sink);
  if (res.flow != total) return {};
  return {true, res.cost};
}

/// Checks optimal_transport_flow and the labeled assignment `a` (computed
/// under the same capacities) against the min-cost max-flow reference.
void expect_matches_reference(const WeightedPointSet& points, const PointSet& centers,
                              const std::vector<std::int64_t>& caps, LrOrder r,
                              const CapacitatedAssignment& a) {
  const Reference ref = min_cost_flow_reference(points, centers, caps, r);
  const auto flow = optimal_transport_flow(points, centers, caps, r);
  ASSERT_EQ(flow.has_value(), ref.feasible);
  ASSERT_EQ(a.feasible, ref.feasible);
  if (!ref.feasible) {
    EXPECT_EQ(a.cost, kInfCost);
    return;
  }
  const std::size_t k = static_cast<std::size_t>(centers.size());
  const double tol = 1e-9 * std::max(1.0, ref.cost);
  EXPECT_NEAR(a.cost, ref.cost, tol);

  double flow_cost = 0.0;
  std::vector<std::int64_t> column(k, 0);
  for (PointIndex i = 0; i < points.size(); ++i) {
    std::int64_t row = 0;
    std::int64_t plurality = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::int64_t f = (*flow)[static_cast<std::size_t>(i) * k + j];
      ASSERT_GE(f, 0);
      row += f;
      column[j] += f;
      plurality = std::max(plurality, f);
      flow_cost += static_cast<double>(f) *
                   dist_pow(points.point(i), centers[static_cast<PointIndex>(j)], r);
    }
    EXPECT_EQ(row, std::llround(points.weight(i))) << "point " << i;
    const CenterIndex label = a.assignment[static_cast<std::size_t>(i)];
    ASSERT_NE(label, kUnassigned) << "point " << i;
    EXPECT_EQ((*flow)[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(label)],
              plurality);
  }
  EXPECT_NEAR(flow_cost, ref.cost, tol);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_LE(column[j], caps[j]);
    EXPECT_LE(a.loads[j], static_cast<double>(caps[j]));
    EXPECT_DOUBLE_EQ(a.loads[j], static_cast<double>(column[j]));
  }
}

WeightedPointSet random_weighted(const PointSet& pts, std::int64_t min_w,
                                 std::int64_t max_w, Rng& rng) {
  WeightedPointSet out(pts.dim());
  for (PointIndex i = 0; i < pts.size(); ++i) {
    out.push_back(pts[i], static_cast<double>(rng.uniform_int(min_w, max_w)));
  }
  return out;
}

std::int64_t total_weight(const WeightedPointSet& points) {
  return std::llround(points.total_weight());
}

/// Runs `body(k, r, rng)` for every k in 1..8 and r in {1, 2, 3}.
template <typename Body>
void for_each_shape(std::uint64_t seed, Body body) {
  for (int k = 1; k <= 8; ++k) {
    for (const double r : {1.0, 2.0, 3.0}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " r=" + std::to_string(r));
      Rng rng(seed + static_cast<std::uint64_t>(k * 10 + static_cast<int>(r)));
      body(k, LrOrder{r}, rng);
    }
  }
}

/// Uniform capacity t per center, as optimal_capacitated_assignment sees it.
void check_uniform(const WeightedPointSet& w, const PointSet& centers, double t,
                   LrOrder r) {
  const std::vector<std::int64_t> caps(static_cast<std::size_t>(centers.size()),
                                       static_cast<std::int64_t>(std::floor(t)));
  expect_matches_reference(w, centers, caps, r,
                           optimal_capacitated_assignment(w, centers, t, r));
}

TEST(TransportVsMinCostFlow, RandomWeightedInstances) {
  for_each_shape(1000, [](int k, LrOrder r, Rng& rng) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto n = static_cast<PointIndex>(rng.uniform_int(1, 40));
      const WeightedPointSet w =
          random_weighted(testutil::random_points(2, 256, n, rng), 1, 6, rng);
      const PointSet centers = testutil::random_points(2, 256, k, rng);
      const double tight = tight_capacity(static_cast<double>(total_weight(w)), k);
      check_uniform(w, centers, tight + trial * 3, r);
    }
  });
}

TEST(TransportVsMinCostFlow, IntegerGridTiesMatch) {
  // A 4x4 grid: many points coincide and many point-center distances tie
  // exactly, so the solver must stay optimal across degenerate bases.
  for_each_shape(2000, [](int k, LrOrder r, Rng& rng) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto n = static_cast<PointIndex>(rng.uniform_int(k, 36));
      const WeightedPointSet w =
          random_weighted(testutil::random_points(2, 4, n, rng), 1, 3, rng);
      const PointSet centers = testutil::random_points(2, 4, k, rng);
      const double tight = tight_capacity(static_cast<double>(total_weight(w)), k);
      check_uniform(w, centers, tight + trial, r);
    }
  });
}

TEST(TransportVsMinCostFlow, UnitWeightsMatch) {
  // The unweighted path (capacitated_cost on raw points), up to 80 points.
  for_each_shape(3000, [](int k, LrOrder r, Rng& rng) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto n = static_cast<PointIndex>(rng.uniform_int(k, 80));
      const WeightedPointSet w =
          WeightedPointSet::unit(testutil::random_points(2, 128, n, rng));
      const PointSet centers = testutil::random_points(2, 128, k, rng);
      check_uniform(w, centers, tight_capacity(static_cast<double>(n), k) + trial, r);
    }
  });
}

TEST(TransportVsMinCostFlow, HeavyPointsSplitAcrossCenters) {
  // Single weights above one center's capacity: the optimum must split them.
  for_each_shape(4000, [](int k, LrOrder r, Rng& rng) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto n = static_cast<PointIndex>(rng.uniform_int(1, 12));
      const WeightedPointSet w =
          random_weighted(testutil::random_points(2, 128, n, rng), 5, 40, rng);
      const PointSet centers = testutil::random_points(2, 128, k, rng);
      check_uniform(w, centers,
                    tight_capacity(static_cast<double>(total_weight(w)), k), r);
    }
  });
}

TEST(TransportVsMinCostFlow, ExactSizesWithZeroCapacities) {
  // exact_size_assignment sizes: random splits of the total weight, where
  // some centers get size 0 and must stay empty.
  for_each_shape(5000, [](int k, LrOrder r, Rng& rng) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto n = static_cast<PointIndex>(rng.uniform_int(1, 30));
      const WeightedPointSet w =
          random_weighted(testutil::random_points(2, 256, n, rng), 1, 4, rng);
      const PointSet centers = testutil::random_points(2, 256, k, rng);
      std::vector<std::int64_t> sizes(static_cast<std::size_t>(k), 0);
      const int open = static_cast<int>(rng.uniform_int(1, k));  // centers 0..open-1
      for (std::int64_t u = 0; u < total_weight(w); ++u) {
        ++sizes[static_cast<std::size_t>(rng.uniform_int(0, open - 1))];
      }
      const CapacitatedAssignment a = exact_size_assignment(w, centers, sizes, r);
      expect_matches_reference(w, centers, sizes, r, a);
      for (int j = open; j < k; ++j) {
        EXPECT_EQ(a.loads[static_cast<std::size_t>(j)], 0.0);
      }
    }
  });
}

TEST(TransportVsMinCostFlow, OverCapacityIsInfeasible) {
  for_each_shape(6000, [](int k, LrOrder r, Rng& rng) {
    const auto n = static_cast<PointIndex>(rng.uniform_int(2, 30));
    const WeightedPointSet w =
        random_weighted(testutil::random_points(2, 256, n, rng), 1, 4, rng);
    const PointSet centers = testutil::random_points(2, 256, k, rng);
    const double t = tight_capacity(static_cast<double>(total_weight(w)), k) - 1.0;
    const CapacitatedAssignment a = optimal_capacitated_assignment(w, centers, t, r);
    EXPECT_FALSE(a.feasible);
    for (CenterIndex label : a.assignment) EXPECT_EQ(label, kUnassigned);
    check_uniform(w, centers, t, r);
  });
}

}  // namespace
}  // namespace skc
