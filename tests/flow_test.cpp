#include <gtest/gtest.h>

#include <cmath>

#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"

namespace ppacd::flow {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

netlist::Netlist small_design(const char* name = "aes", int cells = 600) {
  gen::DesignSpec spec = gen::design_spec(name);
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

FlowOptions fast_options(PlaceStrategy strategy = PlaceStrategy::kSeeded) {
  FlowOptions options;
  options.strategy = strategy;
  options.clock_period_ps = 550.0;
  // Skip V-P&R by default (tests that need it lower the threshold).
  options.vpr.min_cluster_instances = 1 << 20;
  options.fc.target_cluster_count = 10;
  return options;
}

TEST(Flow, DefaultFlowPlacesDesign) {
  netlist::Netlist nl = small_design();
  const FlowResult result =
      try_run(nl, fast_options(PlaceStrategy::kFlat)).value();
  EXPECT_EQ(result.place.positions.size(), nl.cell_count());
  EXPECT_GT(result.place.hpwl_um, 0.0);
  EXPECT_GT(result.place.placement_seconds, 0.0);
  EXPECT_EQ(result.place.cluster_count, 0);
}

TEST(Flow, ClusteredFlowOpenRoadLike) {
  netlist::Netlist nl = small_design();
  FlowOptions options = fast_options();
  const FlowResult result = try_run(nl, options).value();
  EXPECT_EQ(result.place.positions.size(), nl.cell_count());
  EXPECT_GT(result.place.cluster_count, 1);
  EXPECT_GT(result.place.clustering_seconds, 0.0);
  EXPECT_GT(result.place.hpwl_um, 0.0);
}

TEST(Flow, ClusteredHpwlComparableToDefault) {
  netlist::Netlist nl_a = small_design();
  netlist::Netlist nl_b = small_design();
  const FlowResult base =
      try_run(nl_a, fast_options(PlaceStrategy::kFlat)).value();
  const FlowResult ours = try_run(nl_b, fast_options()).value();
  // The paper reports near-identical HPWL (Table 2); allow a wide band here
  // since this is a tiny test design.
  EXPECT_LT(ours.place.hpwl_um, 1.5 * base.place.hpwl_um);
  EXPECT_GT(ours.place.hpwl_um, 0.5 * base.place.hpwl_um);
}

TEST(Flow, InnovusLikeUsesRegions) {
  netlist::Netlist nl = small_design();
  FlowOptions options = fast_options();
  options.tool = Tool::kInnovusLike;
  options.vpr.min_cluster_instances = 30;  // qualify clusters for fences
  options.shape_mode = ShapeMode::kUniform;  // avoid V-P&R cost in this test
  const FlowResult result = try_run(nl, options).value();
  EXPECT_EQ(result.place.positions.size(), nl.cell_count());
  EXPECT_GT(result.place.hpwl_um, 0.0);
}

TEST(Flow, VprShapingRuns) {
  netlist::Netlist nl = small_design();
  FlowOptions options = fast_options();
  options.vpr.min_cluster_instances = 40;
  options.shape_mode = ShapeMode::kVpr;
  const FlowResult result = try_run(nl, options).value();
  EXPECT_GT(result.place.shaped_clusters, 0);
  EXPECT_GT(result.place.shaping_seconds, 0.0);
}

TEST(Flow, RandomShapesDeterministicPerSeed) {
  netlist::Netlist nl_a = small_design();
  netlist::Netlist nl_b = small_design();
  FlowOptions options = fast_options();
  options.vpr.min_cluster_instances = 30;
  options.shape_mode = ShapeMode::kRandom;
  const FlowResult a = try_run(nl_a, options).value();
  const FlowResult b = try_run(nl_b, options).value();
  EXPECT_DOUBLE_EQ(a.place.hpwl_um, b.place.hpwl_um);
}

TEST(Flow, BaselineClusterMethodsRun) {
  for (const ClusterMethod method :
       {ClusterMethod::kMfc, ClusterMethod::kLeiden, ClusterMethod::kLouvainBlob}) {
    netlist::Netlist nl = small_design();
    FlowOptions options = fast_options();
    options.cluster_method = method;
    const FlowResult result = try_run(nl, options).value();
    EXPECT_GT(result.place.cluster_count, 1)
        << "method " << static_cast<int>(method);
    EXPECT_GT(result.place.hpwl_um, 0.0);
  }
}

TEST(Flow, EvaluatePpaProducesSaneMetrics) {
  netlist::Netlist nl = small_design();
  FlowOptions options = fast_options(PlaceStrategy::kFlat);
  const FlowResult placed = try_run(nl, options).value();
  const PpaOutcome ppa =
      try_evaluate_ppa(nl, placed.place.positions, options).value();
  EXPECT_GT(ppa.rwl_um, placed.place.hpwl_um * 0.3);
  EXPECT_LE(ppa.wns_ps, 0.0);                  // aes at 0.55 ns: tight
  EXPECT_LE(ppa.tns_ns * 1000.0, ppa.wns_ps);  // TNS aggregates WNS
  EXPECT_GT(ppa.power_w, 0.0);
  EXPECT_LT(ppa.power_w, 1.0);  // hundreds of uW to mW scale for 600 cells
  EXPECT_GE(ppa.clock_skew_ps, 0.0);
}

TEST(Flow, BetterPlacementBetterPpa) {
  // PPA evaluation must distinguish a real placement from a random one.
  netlist::Netlist nl = small_design();
  FlowOptions options = fast_options(PlaceStrategy::kFlat);
  const FlowResult placed = try_run(nl, options).value();

  util::Rng rng(3);
  geom::BBox box;
  for (const auto& p : placed.place.positions) box.expand(p);
  std::vector<geom::Point> random(nl.cell_count());
  for (auto& p : random) {
    p = {rng.uniform(box.rect().lx, box.rect().ux),
         rng.uniform(box.rect().ly, box.rect().uy)};
  }
  const PpaOutcome good =
      try_evaluate_ppa(nl, placed.place.positions, options).value();
  const PpaOutcome bad = try_evaluate_ppa(nl, random, options).value();
  EXPECT_LT(good.rwl_um, bad.rwl_um);
  EXPECT_GE(good.tns_ns, bad.tns_ns);  // less negative is better
}

TEST(Flow, TimingOptimizationImprovesTns) {
  netlist::Netlist nl_base = small_design("jpeg", 800);
  netlist::Netlist nl_opt = small_design("jpeg", 800);
  FlowOptions options = fast_options(PlaceStrategy::kFlat);
  options.clock_period_ps = 800.0;
  const FlowResult base = try_run(nl_base, options).value();
  const PpaOutcome base_ppa =
      try_evaluate_ppa(nl_base, base.place.positions, options).value();

  FlowOptions opt_options = options;
  opt_options.timing_optimization = true;
  const FlowResult opt = try_run(nl_opt, opt_options).value();
  const PpaOutcome opt_ppa =
      try_evaluate_ppa(nl_opt, opt.place.positions, opt_options).value();

  // The repaired netlist grew (buffers) and stays valid.
  EXPECT_GE(nl_opt.cell_count(), nl_base.cell_count());
  EXPECT_TRUE(nl_opt.validate().empty());
  EXPECT_EQ(opt.place.positions.size(), nl_opt.cell_count());
  // Timing must not degrade materially (usually improves).
  EXPECT_GE(opt_ppa.tns_ns, base_ppa.tns_ns * 1.15);
}

TEST(Flow, SeededFlowDeterministic) {
  netlist::Netlist nl_a = small_design();
  netlist::Netlist nl_b = small_design();
  const FlowResult a = try_run(nl_a, fast_options()).value();
  const FlowResult b = try_run(nl_b, fast_options()).value();
  EXPECT_DOUBLE_EQ(a.place.hpwl_um, b.place.hpwl_um);
}

}  // namespace
}  // namespace ppacd::flow
