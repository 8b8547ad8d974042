#include <gtest/gtest.h>

#include <set>

#include "cluster/overlay.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"

namespace ppacd::cluster {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

netlist::Netlist sample(int cells = 400) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

TEST(Overlay, IntersectionHandComputed) {
  // Partition A: {0,1}{2,3}; partition B: {0,2}{1,3} -> overlay: singletons.
  const std::vector<std::int32_t> a = {0, 0, 1, 1};
  const std::vector<std::int32_t> b = {0, 1, 0, 1};
  std::int32_t count = 0;
  const auto overlay = overlay_partitions({&a, &b}, &count);
  EXPECT_EQ(count, 4);
  std::set<std::int32_t> used(overlay.begin(), overlay.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(Overlay, AgreementPreserved) {
  // Both partitions agree on {0,1} together -> they stay together.
  const std::vector<std::int32_t> a = {0, 0, 1, 2};
  const std::vector<std::int32_t> b = {5, 5, 5, 6};
  std::int32_t count = 0;
  const auto overlay = overlay_partitions({&a, &b}, &count);
  EXPECT_EQ(overlay[0], overlay[1]);
  EXPECT_NE(overlay[0], overlay[2]);
  EXPECT_NE(overlay[2], overlay[3]);
  EXPECT_EQ(count, 3);
}

TEST(Overlay, IdenticalPartitionsAreFixedPoint) {
  const std::vector<std::int32_t> a = {0, 1, 0, 2, 1};
  std::int32_t count = 0;
  const auto overlay = overlay_partitions({&a, &a, &a}, &count);
  EXPECT_EQ(count, 3);
  // Same grouping structure (up to relabeling).
  EXPECT_EQ(overlay[0], overlay[2]);
  EXPECT_EQ(overlay[1], overlay[4]);
  EXPECT_NE(overlay[0], overlay[1]);
}

TEST(Overlay, RefinesEveryInput) {
  // Overlay is a refinement: cells together in the overlay must be together
  // in every input partition.
  const netlist::Netlist nl = sample();
  CutOverlayOptions options;
  options.min_fragment_size = 0;  // pure intersection
  const CutOverlayResult result = cut_overlay_cluster(nl, options);

  FcOptions fc;
  fc.seed = options.seed;  // first input solution reproduces with this seed
  const FcResult first = fc_multilevel_cluster(nl, FcPpaInputs{}, fc);
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    for (std::size_t j = i + 1; j < nl.cell_count(); ++j) {
      if (result.cluster_of_cell[i] == result.cluster_of_cell[j]) {
        ASSERT_EQ(first.cluster_of_cell[i], first.cluster_of_cell[j])
            << "overlay joined " << i << "," << j << " across a cut";
      }
    }
  }
}

TEST(Overlay, MoreSolutionsNeverCoarser) {
  const netlist::Netlist nl = sample();
  CutOverlayOptions two;
  two.solutions = 2;
  two.min_fragment_size = 0;
  CutOverlayOptions four;
  four.solutions = 4;
  four.min_fragment_size = 0;
  const auto a = cut_overlay_cluster(nl, two);
  const auto b = cut_overlay_cluster(nl, four);
  EXPECT_GE(b.cluster_count, a.cluster_count);
}

TEST(Overlay, FragmentAbsorptionReducesCount) {
  const netlist::Netlist nl = sample();
  CutOverlayOptions options;
  options.min_fragment_size = 4;
  const CutOverlayResult result = cut_overlay_cluster(nl, options);
  EXPECT_LE(result.cluster_count, result.pre_absorb_count);
  EXPECT_GT(result.cluster_count, 0);
}

TEST(Overlay, FlowIntegration) {
  netlist::Netlist nl = sample();
  flow::FlowOptions options;
  options.clock_period_ps = 1100.0;
  options.cluster_method = flow::ClusterMethod::kCutOverlay;
  options.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult result = flow::try_run(nl, options).value();
  EXPECT_GT(result.place.cluster_count, 1);
  EXPECT_GT(result.place.hpwl_um, 0.0);
}

}  // namespace
}  // namespace ppacd::cluster
