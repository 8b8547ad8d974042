/// Edge cases and degenerate inputs across modules: empty/tiny designs,
/// combinational-only timing, single-object placement, degenerate routing.
#include <gtest/gtest.h>

#include <sstream>

#include "cts/cts.hpp"
#include "gen/generator.hpp"
#include "hier/dendrogram.hpp"
#include "netlist/io.hpp"
#include "netlist/subnetlist.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "route/global_router.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"
#include "cluster/fc_multilevel.hpp"
#include "cluster/graph.hpp"

namespace ppacd {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

/// Purely combinational design: in -> INV -> out, no registers, no clock.
Netlist comb_only() {
  Netlist nl(lib(), "comb");
  const auto inv = *lib().find("INV_X1");
  const auto a = nl.add_cell("a", inv, nl.root_module());
  const auto in = nl.add_port("in", liberty::PinDir::kInput);
  const auto out = nl.add_port("out", liberty::PinDir::kOutput);
  const auto n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(in).pin);
  nl.connect(n0, nl.cell_pin(a, 0));
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.cell_output_pin(a));
  nl.connect(n1, nl.port(out).pin);
  return nl;
}

TEST(Edge, CombinationalOnlySta) {
  const Netlist nl = comb_only();
  sta::StaOptions options;
  options.clock_period_ps = 1000.0;
  sta::Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());
  // Endpoint = output port only; slack = period - inv delay.
  ASSERT_EQ(sta.endpoints().size(), 1u);
  EXPECT_GT(sta.slack_ps(sta.endpoints()[0]), 0.0);
  EXPECT_DOUBLE_EQ(sta.wns_ps(), 0.0);
  const auto paths = sta.worst_paths(5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].pins.size(), 4u);  // in, a.A, a.Y, out
}

TEST(Edge, CombOnlyActivityAndPower) {
  const Netlist nl = comb_only();
  const auto act = sta::propagate_activity(nl, sta::ActivityOptions{});
  const auto report = sta::compute_power(nl, act, 1000.0, nullptr);
  EXPECT_GT(report.total_w, 0.0);
  EXPECT_DOUBLE_EQ(report.clock_w, 0.0);
}

TEST(Edge, CombOnlyCtsIsNoop) {
  const Netlist nl = comb_only();
  const std::vector<geom::Point> positions(nl.cell_count());
  const auto tree = cts::synthesize_clock_tree(nl, positions, cts::CtsOptions{});
  EXPECT_EQ(tree.buffer_count, 0);
  EXPECT_DOUBLE_EQ(tree.max_skew_ps, 0.0);
}

TEST(Edge, SingleCellPlacement) {
  Netlist nl = comb_only();
  place::FloorplanOptions fpo;
  const place::Floorplan fp =
      place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  const place::PlaceModel model = place::make_place_model(nl, fp);
  const auto result = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
  EXPECT_TRUE(fp.core.contains(result.placement[0]));
  const auto legal = place::legalize(model, result.placement);
  EXPECT_EQ(legal.failed_count, 0);
}

TEST(Edge, RouterOnSingleNet) {
  Netlist nl = comb_only();
  place::FloorplanOptions fpo;
  const place::Floorplan fp =
      place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  const std::vector<geom::Point> positions(nl.cell_count(), fp.core.center());
  const auto result =
      route::GlobalRouter(nl, positions, fp.core, route::RouteOptions{}).run();
  EXPECT_GE(result.wirelength_um, 0.0);
  EXPECT_EQ(result.overflow_edges, 0);
}

TEST(Edge, FcOnTinyNetlist) {
  const Netlist nl = comb_only();
  cluster::FcOptions options;
  options.target_cluster_count = 1;
  const auto result = cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, options);
  EXPECT_EQ(result.cluster_of_cell.size(), 1u);
  EXPECT_EQ(result.cluster_count, 1);
}

TEST(Edge, CliqueExpandEmptyAndSingle) {
  Netlist nl(lib(), "lonely");
  const auto inv = *lib().find("INV_X1");
  nl.add_cell("a", inv, nl.root_module());
  const cluster::Graph graph = cluster::clique_expand(nl);
  EXPECT_EQ(graph.vertex_count, 1);
  EXPECT_DOUBLE_EQ(graph.total_edge_weight, 0.0);
}

TEST(Edge, DendrogramFlatDesign) {
  const Netlist nl = comb_only();
  const hier::Dendrogram dendro(nl);
  EXPECT_EQ(dendro.level_max(), 0);
  std::int32_t count = 0;
  const auto assignment = dendro.clustering_at(0, &count);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(assignment[0], 0);
}

TEST(Edge, SubnetlistOfWholeTinyDesign) {
  const Netlist nl = comb_only();
  const auto sub = netlist::extract_subnetlist(nl, {CellId(0)});
  EXPECT_EQ(sub.netlist.cell_count(), 1u);
  EXPECT_TRUE(sub.netlist.validate().empty());
}

TEST(Edge, VerilogRoundTripTinyDesign) {
  const Netlist nl = comb_only();
  std::ostringstream out;
  netlist::write_verilog(nl, out);
  std::istringstream in(out.str());
  const auto restored = netlist::try_read_verilog(in, lib());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored.value().cell_count(), 1u);
  EXPECT_TRUE(restored.value().validate().empty());
}

TEST(Edge, FloorplanTinyArea) {
  const place::Floorplan fp =
      place::Floorplan::create(1.0, 1.4, place::FloorplanOptions{});
  EXPECT_GE(fp.row_count, 1);
  EXPECT_GT(fp.core.width(), 0.0);
}

TEST(Edge, StaWithZeroPeriod) {
  const Netlist nl = comb_only();
  sta::StaOptions options;
  options.clock_period_ps = 0.0;  // everything violates
  sta::Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());
  EXPECT_LT(sta.wns_ps(), 0.0);
  EXPECT_LT(sta.tns_ns(), 0.0);
}

TEST(Edge, GeneratorMinimumSize) {
  gen::DesignSpec spec;
  spec.name = "min";
  spec.target_cells = 20;
  spec.hierarchy_depth = 1;
  spec.hierarchy_branching = 2;
  spec.io_ports = 4;
  const Netlist nl = gen::generate(lib(), spec);
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_GE(nl.cell_count(), 8u);
}

TEST(Edge, LegalizerAtVeryHighDensity) {
  gen::DesignSpec spec;
  spec.name = "dense";
  spec.target_cells = 200;
  Netlist nl = gen::generate(lib(), spec);
  place::FloorplanOptions fpo;
  fpo.utilization = 0.95;
  const place::Floorplan fp =
      place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  const place::PlaceModel model = place::make_place_model(nl, fp);
  const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
  const auto legal = place::legalize(model, gp.placement);
  // Abacus must still find room (the core fits everything by construction).
  EXPECT_EQ(legal.failed_count, 0);
}

}  // namespace
}  // namespace ppacd
