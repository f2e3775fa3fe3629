#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "skc/geometry/metric.h"
#include "skc/solve/brute_force.h"
#include "skc/solve/capacitated_kmeans.h"
#include "skc/solve/capacitated_kmedian.h"
#include "skc/solve/cost.h"
#include "skc/solve/kmeanspp.h"
#include "skc/solve/lloyd.h"
#include "skc/stream/generators.h"
#include "test_util.h"

namespace skc {
namespace {

TEST(KMeansPP, ReturnsKDistinctRowsFromData) {
  Rng rng(1);
  PointSet pts = testutil::random_points(2, 1024, 100, rng);
  Rng seed_rng(2);
  const PointSet centers = kmeanspp_seed(WeightedPointSet::unit(pts), 5, LrOrder{2.0},
                                         seed_rng);
  ASSERT_EQ(centers.size(), 5);
  // Each center is an input point.
  auto input = testutil::canonical_multiset(pts);
  for (PointIndex i = 0; i < centers.size(); ++i) {
    const auto p = centers[i];
    EXPECT_TRUE(std::binary_search(input.begin(), input.end(),
                                   std::vector<Coord>(p.begin(), p.end())));
  }
}

TEST(KMeansPP, SpreadsSeedsAcrossSeparatedClusters) {
  Rng rng(3);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 12;
  cfg.clusters = 4;
  cfg.n = 800;
  cfg.spread = 0.005;  // very tight clusters
  const PlantedMixture planted = planted_gaussian_mixture(cfg, rng);
  Rng seed_rng(4);
  const PointSet seeds =
      kmeanspp_seed(WeightedPointSet::unit(planted.points), 4, LrOrder{2.0}, seed_rng);
  // Each seed should be near a distinct planted center.
  std::set<int> hit;
  for (PointIndex i = 0; i < seeds.size(); ++i) {
    hit.insert(nearest_center(seeds[i], planted.centers, LrOrder{2.0}).index);
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(Lloyd, CostNeverIncreases) {
  Rng rng(5);
  PointSet pts = testutil::random_points(2, 256, 300, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  Rng seed_rng(6);
  const PointSet init = kmeanspp_seed(w, 4, LrOrder{2.0}, seed_rng);
  const double init_cost = uncapacitated_cost(w, init, LrOrder{2.0});
  const ClusteringResult result = lloyd(w, init, LrOrder{2.0}, LloydOptions{});
  EXPECT_LE(result.cost, init_cost + 1e-9);
  EXPECT_GE(result.iterations, 1);
}

TEST(Lloyd, RecoversWellSeparatedMixture) {
  Rng rng(7);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 12;
  cfg.clusters = 3;
  cfg.n = 600;
  cfg.spread = 0.004;
  const PlantedMixture planted = planted_gaussian_mixture(cfg, rng);
  Rng solver_rng(8);
  const ClusteringResult result = kmeans(WeightedPointSet::unit(planted.points), 3,
                                         LrOrder{2.0}, LloydOptions{}, solver_rng);
  // Every recovered center lies close to some planted center.
  const double delta = 4096.0;
  for (PointIndex i = 0; i < result.centers.size(); ++i) {
    const double d =
        std::sqrt(nearest_center(result.centers[i], planted.centers, LrOrder{2.0}).cost);
    EXPECT_LT(d, 0.05 * delta);
  }
}

TEST(CapacitatedKMeans, RespectsCapacity) {
  Rng rng(9);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 3;
  cfg.n = 120;
  cfg.skew = 1.5;  // skewed sizes: capacity must bind
  PointSet pts = gaussian_mixture(cfg, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const double t = tight_capacity(static_cast<double>(pts.size()), 3);
  Rng solver_rng(10);
  const CapacitatedSolution sol =
      capacitated_kmeans(w, 3, t, LrOrder{2.0}, CapacitatedSolverOptions{}, solver_rng);
  ASSERT_TRUE(sol.feasible);
  for (double load : sol.loads) EXPECT_LE(load, t + 1e-9);
  EXPECT_LT(sol.cost, kInfCost);
}

TEST(CapacitatedKMeans, CapacityBindingCostsMore) {
  Rng rng(11);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 3;
  cfg.n = 90;
  cfg.skew = 2.0;
  PointSet pts = gaussian_mixture(cfg, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  Rng rng_a(12), rng_b(12);
  CapacitatedSolverOptions opts;
  opts.restarts = 3;
  const auto tight = capacitated_kmeans(w, 3, tight_capacity(90, 3), LrOrder{2.0},
                                        opts, rng_a);
  const auto loose = capacitated_kmeans(w, 3, 90.0, LrOrder{2.0}, opts, rng_b);
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_GE(tight.cost, loose.cost - 1e-9);
}

TEST(CapacitatedKMeans, NearOptimalOnTinyInstance) {
  Rng rng(13);
  PointSet pts = testutil::random_points(2, 16, 9, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const double t = 3.0;
  CapacitatedSolverOptions opts;
  opts.restarts = 5;
  Rng solver_rng(14);
  const auto sol = capacitated_kmeans(w, 3, t, LrOrder{2.0}, opts, solver_rng);
  ASSERT_TRUE(sol.feasible);
  // Exhaustive optimum over centers restricted to data points.
  const auto brute = brute_force_best_centers(w, pts, 3, t, LrOrder{2.0});
  // Lloyd centers are unrestricted, so it can even beat the discrete brute
  // force; just require it is not far worse.
  EXPECT_LE(sol.cost, 2.0 * brute.cost + 1e-9);
}

// Regression: the stopping rule compared each iterate with the best cost
// already updated to that iterate, so balanced Lloyd always stopped after 2
// iterations.  On this instance iteration 3 and later still improve.
TEST(CapacitatedKMeans, LloydRunsPastTwoIterationsWhileImproving) {
  Rng rng(31);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 6;
  cfg.n = 600;
  cfg.skew = 1.0;
  const WeightedPointSet w = WeightedPointSet::unit(gaussian_mixture(cfg, rng));
  const double t = tight_capacity(600.0, 4) * 1.1;
  CapacitatedSolverOptions two;
  two.max_iters = 2;
  Rng rng_a(7), rng_b(7);
  const auto short_run = capacitated_kmeans(w, 4, t, LrOrder{2.0}, two, rng_a);
  const auto full =
      capacitated_kmeans(w, 4, t, LrOrder{2.0}, CapacitatedSolverOptions{}, rng_b);
  ASSERT_TRUE(short_run.feasible);
  ASSERT_TRUE(full.feasible);
  EXPECT_EQ(short_run.iterations, 2);
  EXPECT_GT(full.iterations, 2);
  EXPECT_LT(full.cost, short_run.cost);
}

TEST(CapacitatedKMedian, RespectsCapacityAndImproves) {
  Rng rng(15);
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = 3;
  cfg.n = 80;
  cfg.skew = 1.0;
  PointSet pts = gaussian_mixture(cfg, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const double t = tight_capacity(80, 3);
  Rng solver_rng(16);
  const auto sol = capacitated_kmedian(w, 3, t, LrOrder{1.0}, LocalSearchOptions{},
                                       solver_rng);
  ASSERT_TRUE(sol.feasible);
  for (double load : sol.loads) EXPECT_LE(load, t + 1e-9);
  // Local search should at least match a random single seed's cost.
  Rng base_rng(17);
  const PointSet seeds = kmeanspp_seed(w, 3, LrOrder{1.0}, base_rng);
  const double seed_cost = capacitated_cost(w, seeds, t, LrOrder{1.0});
  EXPECT_LE(sol.cost, seed_cost + 1e-9);
}


TEST(Lloyd, MedoidUpdateForKMedianStaysOnDataPoints) {
  // r = 1 uses the medoid update: every center must remain an input point.
  Rng rng(21);
  PointSet pts = testutil::random_points(2, 256, 120, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  Rng seed_rng(22);
  const ClusteringResult result =
      kmeans(w, 3, LrOrder{1.0}, LloydOptions{}, seed_rng);
  auto input = testutil::canonical_multiset(pts);
  for (PointIndex i = 0; i < result.centers.size(); ++i) {
    const auto c = result.centers[i];
    EXPECT_TRUE(std::binary_search(input.begin(), input.end(),
                                   std::vector<Coord>(c.begin(), c.end())));
  }
}

class CapacitatedSolverSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CapacitatedSolverSweep, FeasibleAtTightCapacityAcrossShapes) {
  const auto [k, r] = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + k * 13 + static_cast<int>(r * 7)));
  MixtureConfig cfg;
  cfg.dim = 2;
  cfg.log_delta = 10;
  cfg.clusters = k;
  cfg.n = 40 * k;
  cfg.skew = 1.4;
  const PointSet pts = gaussian_mixture(cfg, rng);
  const WeightedPointSet w = WeightedPointSet::unit(pts);
  const double t = tight_capacity(static_cast<double>(pts.size()), k);
  Rng solver_rng(static_cast<std::uint64_t>(200 + k));
  const CapacitatedSolution sol =
      capacitated_kmeans(w, k, t, LrOrder{r}, CapacitatedSolverOptions{}, solver_rng);
  ASSERT_TRUE(sol.feasible) << "k=" << k << " r=" << r;
  for (double load : sol.loads) EXPECT_LE(load, t + 1e-9);
  // The reported cost matches re-evaluating the assignment.
  const AssignmentEval eval = evaluate_assignment(w, sol.centers, LrOrder{r},
                                                  sol.assignment);
  EXPECT_NEAR(eval.cost, sol.cost, 1e-6 * std::max(1.0, sol.cost));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CapacitatedSolverSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1.0, 2.0)));

TEST(BruteForce, MatchesHandComputedTinyCase) {
  // 4 points on a line, 2 centers, capacity 2.
  PointSet pts(1);
  pts.push_back({1});
  pts.push_back({2});
  pts.push_back({9});
  pts.push_back({10});
  PointSet centers(1);
  centers.push_back({1});
  centers.push_back({10});
  const double cost =
      brute_force_capacitated_cost(WeightedPointSet::unit(pts), centers, 2.0,
                                   LrOrder{2.0});
  EXPECT_DOUBLE_EQ(cost, 0.0 + 1.0 + 1.0 + 0.0);
}

TEST(BruteForce, InfeasibleIsInfinite) {
  PointSet pts(1);
  pts.push_back({1});
  pts.push_back({2});
  pts.push_back({3});
  PointSet centers(1);
  centers.push_back({1});
  EXPECT_EQ(brute_force_capacitated_cost(WeightedPointSet::unit(pts), centers, 2.0,
                                         LrOrder{2.0}),
            kInfCost);
}

TEST(BruteForceBestCenters, FindsPlantedOptimum) {
  PointSet pts(1);
  for (Coord x : {1, 2, 3, 50, 51, 52}) pts.push_back({x});
  const auto best = brute_force_best_centers(WeightedPointSet::unit(pts), pts, 2, 3.0,
                                             LrOrder{2.0});
  // Optimal centers are the middles: 2 and 51.
  ASSERT_EQ(best.centers.size(), 2);
  std::set<Coord> got = {best.centers[0][0], best.centers[1][0]};
  EXPECT_EQ(got, (std::set<Coord>{2, 51}));
  EXPECT_DOUBLE_EQ(best.cost, 4.0);  // 1+0+1 per side
}

}  // namespace
}  // namespace skc
