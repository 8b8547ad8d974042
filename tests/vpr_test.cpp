#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/fc_multilevel.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/subnetlist.hpp"
#include "vpr/vpr.hpp"

namespace ppacd::vpr {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

netlist::Netlist small_design(int cells = 500) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

/// A ~80-cell sub-netlist extracted from one FC cluster.
netlist::SubNetlist sample_cluster(const netlist::Netlist& nl) {
  cluster::FcOptions fc;
  fc.target_cluster_count = 6;
  const cluster::FcResult result =
      cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
  // Pick the largest cluster.
  std::vector<std::vector<netlist::CellId>> members(
      static_cast<std::size_t>(result.cluster_count));
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    members[static_cast<std::size_t>(result.cluster_of_cell[ci])].push_back(
        static_cast<netlist::CellId>(ci));
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i].size() > members[best].size()) best = i;
  }
  return netlist::extract_subnetlist(nl, members[best]);
}

TEST(Vpr, TwentyCandidateShapes) {
  const auto shapes = candidate_shapes(VprOptions{});
  ASSERT_EQ(shapes.size(), 20u);
  // Paper sweep: AR in [0.75, 1.75] step 0.25; util in [0.75, 0.90] step 0.05.
  double min_ar = 10, max_ar = 0, min_u = 10, max_u = 0;
  for (const auto& s : shapes) {
    min_ar = std::min(min_ar, s.aspect_ratio);
    max_ar = std::max(max_ar, s.aspect_ratio);
    min_u = std::min(min_u, s.utilization);
    max_u = std::max(max_u, s.utilization);
  }
  EXPECT_DOUBLE_EQ(min_ar, 0.75);
  EXPECT_DOUBLE_EQ(max_ar, 1.75);
  EXPECT_DOUBLE_EQ(min_u, 0.75);
  EXPECT_DOUBLE_EQ(max_u, 0.90);
}

TEST(Vpr, EvaluateShapeProducesCosts) {
  const netlist::Netlist nl = small_design();
  const netlist::SubNetlist sub = sample_cluster(nl);
  cluster::ClusterShape shape;
  const ShapeCandidate candidate = evaluate_shape(sub.netlist, shape, VprOptions{});
  EXPECT_GT(candidate.hpwl_cost, 0.0);
  EXPECT_GE(candidate.congestion_cost, 0.0);
  EXPECT_NEAR(candidate.total_cost,
              candidate.hpwl_cost + 0.01 * candidate.congestion_cost, 1e-12);
}

TEST(Vpr, RunVprPicksArgmin) {
  const netlist::Netlist nl = small_design();
  const netlist::SubNetlist sub = sample_cluster(nl);
  const VprResult result = run_vpr(sub.netlist, VprOptions{});
  ASSERT_EQ(result.candidates.size(), 20u);
  double best = result.candidates[result.best_index].total_cost;
  for (const ShapeCandidate& c : result.candidates) {
    EXPECT_GE(c.total_cost + 1e-12, best);
  }
}

TEST(Vpr, ShapeMattersForCost) {
  // Costs must actually vary across candidates, otherwise the whole V-P&R
  // machinery (and the ML model) would be pointless.
  const netlist::Netlist nl = small_design();
  const netlist::SubNetlist sub = sample_cluster(nl);
  const VprResult result = run_vpr(sub.netlist, VprOptions{});
  double min_cost = result.candidates[0].total_cost;
  double max_cost = min_cost;
  for (const ShapeCandidate& c : result.candidates) {
    min_cost = std::min(min_cost, c.total_cost);
    max_cost = std::max(max_cost, c.total_cost);
  }
  EXPECT_GT(max_cost, min_cost * 1.01);
}

TEST(Vpr, SelectShapesHonoursThreshold) {
  const netlist::Netlist nl = small_design(800);
  cluster::FcOptions fc;
  fc.target_cluster_count = 8;
  const cluster::FcResult result =
      cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
  cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
      nl, result.cluster_of_cell, result.cluster_count);

  VprOptions options;
  options.min_cluster_instances = 1 << 20;  // nothing qualifies
  const ShapeSelectionStats none =
      select_cluster_shapes(nl, clustered, options, nullptr);
  EXPECT_EQ(none.clusters_shaped, 0);

  options.min_cluster_instances = 40;
  const ShapeSelectionStats some =
      select_cluster_shapes(nl, clustered, options, nullptr);
  EXPECT_GT(some.clusters_shaped, 0);
  EXPECT_DOUBLE_EQ(some.vpr_runs, some.clusters_shaped * 20.0);
}

TEST(Vpr, PredictorShortCircuitsVpr) {
  const netlist::Netlist nl = small_design(800);
  cluster::FcOptions fc;
  fc.target_cluster_count = 8;
  const cluster::FcResult result =
      cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
  cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
      nl, result.cluster_of_cell, result.cluster_count);

  // Predictor that always prefers the last candidate (AR 1.75, util 0.90).
  const ShapeCostPredictor predictor =
      [](const netlist::Netlist&, const std::vector<cluster::ClusterShape>& c) {
        std::vector<double> costs(c.size(), 1.0);
        costs.back() = 0.0;
        return costs;
      };
  VprOptions options;
  options.min_cluster_instances = 40;
  const ShapeSelectionStats stats =
      select_cluster_shapes(nl, clustered, options, &predictor);
  EXPECT_GT(stats.clusters_shaped, 0);
  EXPECT_DOUBLE_EQ(stats.vpr_runs, 0.0);
  for (const cluster::Cluster& c : clustered.clusters) {
    if (static_cast<int>(c.cells.size()) > options.min_cluster_instances) {
      EXPECT_DOUBLE_EQ(c.shape.aspect_ratio, 1.75);
      EXPECT_DOUBLE_EQ(c.shape.utilization, 0.90);
    }
  }
}

TEST(Vpr, LShapeEvaluationProducesComparableCosts) {
  const netlist::Netlist nl = small_design();
  const netlist::SubNetlist sub = sample_cluster(nl);
  cluster::ClusterShape shape;
  const ShapeCandidate rect = evaluate_shape(sub.netlist, shape, VprOptions{});
  const ShapeCandidate l25 =
      evaluate_l_shape(sub.netlist, shape, 0.25, VprOptions{});
  EXPECT_GT(l25.hpwl_cost, 0.0);
  EXPECT_GE(l25.congestion_cost, 0.0);
  // Same cost scale: within 3x of the rectangular result.
  EXPECT_LT(l25.total_cost, rect.total_cost * 3.0);
  EXPECT_GT(l25.total_cost, rect.total_cost / 3.0);
}

TEST(Vpr, DeeperNotchNeverHelpsIsolatedHpwl) {
  // More notch means a larger gross die at equal usable area, so the
  // normalized HPWL cost should not improve substantially.
  const netlist::Netlist nl = small_design();
  const netlist::SubNetlist sub = sample_cluster(nl);
  cluster::ClusterShape shape;
  const double c15 = evaluate_l_shape(sub.netlist, shape, 0.15, VprOptions{}).total_cost;
  const double c35 = evaluate_l_shape(sub.netlist, shape, 0.35, VprOptions{}).total_cost;
  EXPECT_GT(c35, c15 * 0.9);
}

}  // namespace
}  // namespace ppacd::vpr
