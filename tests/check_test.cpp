#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/cluster_check.hpp"
#include "check/netlist_check.hpp"
#include "check/place_check.hpp"
#include "check/route_check.hpp"
#include "cluster/clustered_netlist.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/model.hpp"
#include "route/global_router.hpp"

namespace ppacd::check {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

std::vector<std::string> codes(const CheckResult& result) {
  std::vector<std::string> out;
  for (const Violation& v : result.violations) out.push_back(v.code);
  return out;
}

bool has_code(const CheckResult& result, std::string_view code) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

bool only_codes(const CheckResult& result,
                std::initializer_list<std::string_view> allowed) {
  return std::all_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) {
                       return std::find(allowed.begin(), allowed.end(),
                                        v.code) != allowed.end();
                     });
}

// ---------------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------------

TEST(CheckFramework, ParseCheckLevel) {
  CheckLevel level = CheckLevel::kOff;
  EXPECT_TRUE(parse_check_level("cheap", &level));
  EXPECT_EQ(level, CheckLevel::kCheap);
  EXPECT_TRUE(parse_check_level("full", &level));
  EXPECT_EQ(level, CheckLevel::kFull);
  EXPECT_TRUE(parse_check_level("off", &level));
  EXPECT_EQ(level, CheckLevel::kOff);
  EXPECT_TRUE(parse_check_level("2", &level));
  EXPECT_EQ(level, CheckLevel::kFull);
  level = CheckLevel::kCheap;
  EXPECT_FALSE(parse_check_level("bogus", &level));
  EXPECT_EQ(level, CheckLevel::kCheap);  // untouched on failure
}

TEST(CheckFramework, ResultCapsStoredViolationsButCountsAll) {
  CheckResult result;
  result.checker = "test";
  for (int i = 0; i < 100; ++i) result.add("code", msg() << "violation " << i);
  EXPECT_EQ(result.total_violations, 100u);
  EXPECT_EQ(result.violations.size(), CheckResult::kMaxStoredViolations);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.exactly("code"));  // exactly() means exactly one
}

TEST(CheckFramework, ReportAccumulatesIntoProcessLog) {
  reset_log();
  CheckResult clean;
  clean.checker = "clean";
  EXPECT_TRUE(report(clean));
  CheckResult dirty;
  dirty.checker = "dirty";
  dirty.add("some-code", "object 7 is broken");
  EXPECT_FALSE(report(dirty));
  EXPECT_EQ(logged_violations(), 1u);
  EXPECT_EQ(log_snapshot().size(), 2u);
  const std::string json = log_json().dump();
  EXPECT_NE(json.find("some-code"), std::string::npos);
  EXPECT_NE(json.find("object 7 is broken"), std::string::npos);
  reset_log();
  EXPECT_EQ(logged_violations(), 0u);
  EXPECT_TRUE(log_snapshot().empty());
}

// ---------------------------------------------------------------------------
// Netlist checker
// ---------------------------------------------------------------------------

/// in -> a(INV) -> b(INV) -> out; nets n0/n1/n2 recorded in order.
netlist::Netlist tiny_netlist() {
  netlist::Netlist nl(lib(), "tiny");
  const auto inv = *lib().find("INV_X1");
  const auto in = nl.add_port("in", liberty::PinDir::kInput);
  const auto out = nl.add_port("out", liberty::PinDir::kOutput);
  const auto a = nl.add_cell("a", inv, nl.root_module());
  const auto b = nl.add_cell("b", inv, nl.root_module());
  const auto n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(in).pin);
  nl.connect(n0, nl.cell_pin(a, 0));
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.cell_output_pin(a));
  nl.connect(n1, nl.cell_pin(b, 0));
  const auto n2 = nl.add_net("n2");
  nl.connect(n2, nl.cell_output_pin(b));
  nl.connect(n2, nl.port(out).pin);
  return nl;
}

TEST(NetlistCheck, CleanGeneratedDesignPasses) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 200;
  const netlist::Netlist nl = gen::generate(lib(), spec);
  const CheckResult result = check_netlist(nl, CheckLevel::kFull);
  EXPECT_TRUE(result.ok()) << log_json().dump();
  EXPECT_GT(result.checked, 0u);
}

TEST(NetlistCheck, FlagsDanglingPin) {
  netlist::Netlist nl = tiny_netlist();
  nl.mutable_net(netlist::NetId(1)).pins.push_back(
      netlist::PinId(nl.pin_count() + 7));
  const CheckResult result = check_netlist(nl, CheckLevel::kFull);
  EXPECT_TRUE(result.exactly("dangling-pin"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(NetlistCheck, FlagsDuplicatePin) {
  netlist::Netlist nl = tiny_netlist();
  nl.mutable_net(netlist::NetId(1)).pins.push_back(
      nl.cell_pin(netlist::CellId(1), 0));  // b's input, again
  const CheckResult result = check_netlist(nl, CheckLevel::kFull);
  EXPECT_TRUE(result.exactly("duplicate-pin"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(NetlistCheck, FlagsFloatingInput) {
  netlist::Netlist nl(lib(), "floating");
  const auto inv = *lib().find("INV_X1");
  const auto in = nl.add_port("in", liberty::PinDir::kInput);
  const auto out = nl.add_port("out", liberty::PinDir::kOutput);
  const auto a = nl.add_cell("a", inv, nl.root_module());
  const auto n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(in).pin);
  nl.connect(n0, nl.cell_pin(a, 0));
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.cell_output_pin(a));
  nl.connect(n1, nl.port(out).pin);
  // A second inverter whose input pin is never connected; its floating
  // *output* is allowed, the floating input is the violation.
  const auto b = nl.add_cell("b", inv, nl.root_module());
  (void)b;
  const CheckResult result = check_netlist(nl, CheckLevel::kCheap);
  EXPECT_TRUE(result.exactly("floating-input"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(NetlistCheck, FlagsUnlistedDriver) {
  netlist::Netlist nl = tiny_netlist();
  netlist::Net& n1 = nl.mutable_net(netlist::NetId(1));
  n1.pins.erase(std::find(n1.pins.begin(), n1.pins.end(), n1.driver));
  const CheckResult result = check_netlist(nl, CheckLevel::kCheap);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result, "driver-not-listed"))
      << "codes: " << testing::PrintToString(codes(result));
  // Dropping the driver also breaks the driver count and the pin's
  // back-reference; nothing unrelated may fire.
  EXPECT_TRUE(only_codes(result, {"driver-not-listed", "driver-count",
                                  "pin-net-mismatch"}))
      << "codes: " << testing::PrintToString(codes(result));
}

// ---------------------------------------------------------------------------
// Cluster checker
// ---------------------------------------------------------------------------

/// in -> a0 -> a1 -> b0 -> b1 -> out, clustered {a0,a1} / {b0,b1}.
struct TinyClustering {
  TinyClustering() : nl(lib(), "tinyc") {
    const auto inv = *lib().find("INV_X1");
    const auto in = nl.add_port("in", liberty::PinDir::kInput);
    const auto out = nl.add_port("out", liberty::PinDir::kOutput);
    netlist::CellId prev = netlist::kInvalidId;
    for (const char* name : {"a0", "a1", "b0", "b1"}) {
      const auto c = nl.add_cell(name, inv, nl.root_module());
      const auto n = nl.add_net(std::string("n_") + name);
      if (prev == netlist::kInvalidId) {
        nl.connect(n, nl.port(in).pin);
      } else {
        nl.connect(n, nl.cell_output_pin(prev));
      }
      nl.connect(n, nl.cell_pin(c, 0));
      prev = c;
    }
    const auto n_out = nl.add_net("n_out");
    nl.connect(n_out, nl.cell_output_pin(prev));
    nl.connect(n_out, nl.port(out).pin);
    clustered = cluster::build_clustered_netlist(nl, {0, 0, 1, 1}, 2);
  }
  netlist::Netlist nl;
  cluster::ClusteredNetlist clustered;
};

TEST(ClusterCheck, CleanClusteringPasses) {
  TinyClustering t;
  const CheckResult result = check_clustering(t.nl, t.clustered, CheckLevel::kFull);
  EXPECT_TRUE(result.ok()) << testing::PrintToString(codes(result));
  EXPECT_GT(result.checked, 0u);
}

TEST(ClusterCheck, FlagsDoubleClusteredCell) {
  TinyClustering t;
  // List cell 0 in cluster 1 as well, keeping area/shape self-consistent so
  // only the partition violation fires.
  t.clustered.clusters[cluster::ClusterId(1)].cells.push_back(netlist::CellId(0));
  t.clustered.clusters[cluster::ClusterId(1)].area_um2 +=
      t.nl.lib_cell_of(netlist::CellId(0)).area_um2();
  cluster::set_cluster_shape(t.clustered, cluster::ClusterId(1),
                             t.clustered.clusters[cluster::ClusterId(1)].shape);
  const CheckResult result = check_clustering(t.nl, t.clustered, CheckLevel::kFull);
  // Fires once for the membership/assignment mismatch and once for the
  // listing count; nothing else.
  EXPECT_EQ(result.total_violations, 2u);
  EXPECT_TRUE(only_codes(result, {"double-clustered"}))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(ClusterCheck, FlagsUnclusteredCell) {
  TinyClustering t;
  cluster::Cluster& c1 = t.clustered.clusters[cluster::ClusterId(1)];
  c1.cells.pop_back();  // drop cell 3 from its membership list
  c1.area_um2 -= t.nl.lib_cell_of(netlist::CellId(3)).area_um2();
  cluster::set_cluster_shape(t.clustered, cluster::ClusterId(1), c1.shape);
  const CheckResult result = check_clustering(t.nl, t.clustered, CheckLevel::kFull);
  EXPECT_TRUE(result.exactly("unclustered"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(ClusterCheck, FlagsAssignmentSizeMismatch) {
  TinyClustering t;
  t.clustered.cluster_of_cell.pop_back();
  const CheckResult result = check_clustering(t.nl, t.clustered, CheckLevel::kFull);
  EXPECT_TRUE(result.exactly("assignment-size"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(ClusterCheck, FlagsOverlayWeightDrift) {
  TinyClustering t;
  ASSERT_FALSE(t.clustered.nets.empty());
  t.clustered.nets[0].weight += 0.5;
  // The cheap level does not reconstruct the overlay, so it stays silent...
  EXPECT_TRUE(check_clustering(t.nl, t.clustered, CheckLevel::kCheap).ok());
  // ...and the full level pinpoints the drifted hyperedge.
  const CheckResult result = check_clustering(t.nl, t.clustered, CheckLevel::kFull);
  EXPECT_TRUE(result.exactly("overlay-weight"))
      << "codes: " << testing::PrintToString(codes(result));
}

// ---------------------------------------------------------------------------
// Placement checker
// ---------------------------------------------------------------------------

/// 10 x 5.6 um core (4 rows of 1.4) with two 1 x 1.4 movable cells.
place::PlaceModel tiny_model() {
  place::PlaceModel model;
  model.core = geom::Rect::make(0.0, 0.0, 10.0, 5.6);
  model.row_height_um = 1.4;
  model.objects.resize(2);
  for (place::PlaceObject& obj : model.objects) {
    obj.width_um = 1.0;
    obj.height_um = 1.4;
  }
  return model;
}

TEST(PlaceCheck, CleanLegalizedPlacementPasses) {
  const place::PlaceModel model = tiny_model();
  const place::Placement placement = {{1.0, 0.7}, {3.0, 2.1}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kFull, {});
  EXPECT_TRUE(result.ok()) << testing::PrintToString(codes(result));
}

TEST(PlaceCheck, FlagsOverlappingCells) {
  const place::PlaceModel model = tiny_model();
  const place::Placement placement = {{1.0, 0.7}, {1.5, 0.7}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kFull, {});
  EXPECT_TRUE(result.exactly("overlap"))
      << "codes: " << testing::PrintToString(codes(result));
  EXPECT_NE(result.violations.front().message.find("0.5"), std::string::npos)
      << result.violations.front().message;
}

TEST(PlaceCheck, FlagsCellOutsideCore) {
  const place::PlaceModel model = tiny_model();
  const place::Placement placement = {{-2.0, 0.7}, {3.0, 0.7}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kFull, {});
  EXPECT_TRUE(result.exactly("outside-core"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(PlaceCheck, FlagsRowMisalignment) {
  const place::PlaceModel model = tiny_model();
  const place::Placement placement = {{1.0, 1.0}, {3.0, 0.7}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kFull, {});
  EXPECT_TRUE(result.exactly("row-misaligned"))
      << "codes: " << testing::PrintToString(codes(result));
  // A global (pre-legalization) placement is allowed off-row.
  EXPECT_TRUE(check_placement(model, placement, CheckLevel::kFull,
                              {.legalized = false})
                  .ok());
}

TEST(PlaceCheck, FlagsMovedFixedObject) {
  place::PlaceModel model = tiny_model();
  model.objects[0].fixed = true;
  model.objects[0].fixed_position = {2.0, 2.0};
  const place::Placement placement = {{3.0, 2.0}, {3.0, 0.7}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kFull, {});
  EXPECT_TRUE(result.exactly("fixed-moved"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(PlaceCheck, FlagsPlacementSizeMismatch) {
  const place::PlaceModel model = tiny_model();
  const place::Placement placement = {{1.0, 0.7}};
  const CheckResult result =
      check_placement(model, placement, CheckLevel::kCheap, {});
  EXPECT_TRUE(result.exactly("placement-size"))
      << "codes: " << testing::PrintToString(codes(result));
}

// ---------------------------------------------------------------------------
// Route checker
// ---------------------------------------------------------------------------

struct RoutedDesign {
  RoutedDesign() : nl(make()) {
    fp = place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(),
                                  place::FloorplanOptions{});
    place::place_ports_on_boundary(nl, fp);
    const place::PlaceModel model = place::make_place_model(nl, fp);
    const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
    positions = place::cell_positions(nl, gp.placement);
    routed = route::GlobalRouter(nl, positions, fp.core, options).run();
  }
  static netlist::Netlist make() {
    gen::DesignSpec spec = gen::design_spec("aes");
    spec.target_cells = 200;
    return gen::generate(lib(), spec);
  }
  netlist::Netlist nl;
  place::Floorplan fp;
  std::vector<geom::Point> positions;
  route::RouteOptions options;
  route::RouteResult routed;
};

TEST(RouteCheck, CleanRoutingPasses) {
  RoutedDesign d;
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kFull);
  EXPECT_TRUE(result.ok()) << testing::PrintToString(codes(result));
  EXPECT_GT(result.checked, 0u);
}

TEST(RouteCheck, FlagsNegativeWirelength) {
  RoutedDesign d;
  d.routed.wirelength_um = -1.0;
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kCheap);
  EXPECT_TRUE(result.exactly("wirelength"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(RouteCheck, FlagsEdgeMapSizeMismatch) {
  RoutedDesign d;
  d.routed.edge_utilization.push_back(0.0);
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kCheap);
  EXPECT_TRUE(result.exactly("edge-map-size"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(RouteCheck, FlagsNegativeEdgeUtilization) {
  RoutedDesign d;
  d.routed.edge_utilization[0] = -2.0;
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kCheap);
  EXPECT_TRUE(result.exactly("edge-utilization"))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(RouteCheck, FlagsOverflowMiscount) {
  RoutedDesign d;
  d.routed.overflow_edges += 1;
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kCheap);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result, "overflow-count"))
      << "codes: " << testing::PrintToString(codes(result));
  // A phantom overflow edge may additionally contradict total_overflow.
  EXPECT_TRUE(only_codes(result, {"overflow-count", "overflow-total"}))
      << "codes: " << testing::PrintToString(codes(result));
}

TEST(RouteCheck, FlagsOutOfBoundsRoute) {
  RoutedDesign d;
  // Teleport one cell far outside the routing grid: every net touching it
  // now has a pin (and therefore a topology vertex) out of bounds.
  d.positions[5] = {d.fp.core.ux + 50.0, d.fp.core.uy + 50.0};
  const CheckResult result = check_routing(d.nl, d.positions, d.fp.core,
                                           d.routed, d.options, CheckLevel::kFull);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_code(result, "pin-outside-grid"))
      << "codes: " << testing::PrintToString(codes(result));
  EXPECT_TRUE(has_code(result, "tree-outside-grid"))
      << "codes: " << testing::PrintToString(codes(result));
  EXPECT_TRUE(only_codes(result, {"pin-outside-grid", "tree-outside-grid"}))
      << "codes: " << testing::PrintToString(codes(result));
}

// ---------------------------------------------------------------------------
// End-to-end: the full flow under --check full stays violation-free
// ---------------------------------------------------------------------------

TEST(CheckFlow, FullClusteredFlowIsViolationFree) {
  reset_log();
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 300;
  netlist::Netlist nl = gen::generate(lib(), spec);
  flow::FlowOptions options;
  options.check_level = CheckLevel::kFull;
  const flow::FlowResult result = flow::try_run(nl, options).value();
  ASSERT_TRUE(
      flow::try_evaluate_ppa(nl, result.place.positions, options).has_value());
  EXPECT_EQ(logged_violations(), 0u) << log_json().dump(2);
  // Every phase validator actually ran: netlist, cluster, place, route.
  const std::vector<CheckResult> log = log_snapshot();
  for (const char* checker : {"netlist", "cluster", "place", "route"}) {
    EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                            [&](const CheckResult& r) {
                              return r.checker == checker;
                            }))
        << "no " << checker << " check in the log";
  }
  reset_log();
}

}  // namespace
}  // namespace ppacd::check
