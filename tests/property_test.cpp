/// Property-based tests: invariants checked across parameter sweeps
/// (designs x topologies x seeds x densities) rather than single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>

#include "cluster/community.hpp"
#include "fault/fault.hpp"
#include "cluster/fc_multilevel.hpp"
#include "cluster/graph.hpp"
#include "cluster/ppa_costs.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "hier/dendrogram.hpp"
#include "hier/rent.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "route/global_router.hpp"
#include "route/steiner.hpp"
#include "sta/activity.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace ppacd {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

// =============================================================================
// Generator properties over (topology x seed)
// =============================================================================

struct GenParam {
  gen::Topology topology;
  std::uint64_t seed;
};

class GeneratorProperty : public ::testing::TestWithParam<GenParam> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  gen::DesignSpec spec;
  spec.name = "prop";
  spec.topology = GetParam().topology;
  spec.seed = GetParam().seed;
  spec.target_cells = 350;
  spec.hierarchy_depth = 3;
  spec.hierarchy_branching = 3;
  const netlist::Netlist nl = gen::generate(lib(), spec);

  // Valid, hierarchical, register-bearing.
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_TRUE(nl.has_hierarchy());

  // Every net has exactly one driver and >= 1 pin; every cell pin's back
  // reference is consistent (validate covers it, but recheck driver dirs).
  std::size_t registers = 0;
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    if (liberty::is_sequential(nl.lib_cell_of(static_cast<netlist::CellId>(ci)).function)) {
      ++registers;
    }
  }
  EXPECT_GT(registers, 0u);
  // Register fraction within 2x of the requested value.
  const double frac = static_cast<double>(registers) / nl.cell_count();
  EXPECT_GT(frac, spec.register_fraction * 0.5);
  EXPECT_LT(frac, spec.register_fraction * 2.0);
}

TEST_P(GeneratorProperty, TimingGraphIsAcyclic) {
  gen::DesignSpec spec;
  spec.name = "prop";
  spec.topology = GetParam().topology;
  spec.seed = GetParam().seed;
  spec.target_cells = 300;
  const netlist::Netlist nl = gen::generate(lib(), spec);
  // Sta::build_graph asserts on cycles (Kahn must consume all pins).
  sta::StaOptions options;
  options.clock_period_ps = 1000.0;
  sta::Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());
  EXPECT_TRUE(std::isfinite(sta.tns_ns()));
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSeeds, GeneratorProperty,
    ::testing::Values(GenParam{gen::Topology::kGeneric, 1},
                      GenParam{gen::Topology::kGeneric, 99},
                      GenParam{gen::Topology::kPipeline, 1},
                      GenParam{gen::Topology::kPipeline, 7},
                      GenParam{gen::Topology::kTiled, 3},
                      GenParam{gen::Topology::kTiled, 11},
                      GenParam{gen::Topology::kMulticore, 5},
                      GenParam{gen::Topology::kMulticore, 13}),
    [](const ::testing::TestParamInfo<GenParam>& info) {
      const char* name = "Generic";
      if (info.param.topology == gen::Topology::kPipeline) name = "Pipeline";
      if (info.param.topology == gen::Topology::kTiled) name = "Tiled";
      if (info.param.topology == gen::Topology::kMulticore) name = "Multicore";
      return std::string(name) + "_s" + std::to_string(info.param.seed);
    });

// =============================================================================
// STA invariants across designs
// =============================================================================

class StaProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(StaProperty, SlackArithmeticAndPathMonotonicity) {
  gen::DesignSpec spec = gen::design_spec(GetParam());
  spec.target_cells = std::min(spec.target_cells, 800);
  const netlist::Netlist nl = gen::generate(lib(), spec);
  sta::StaOptions options;
  options.clock_period_ps = spec.clock_period_ps;
  sta::Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());

  // TNS aggregates at least the WNS endpoint.
  EXPECT_LE(sta.tns_ns() * 1000.0, sta.wns_ps() + 1e-9);
  // slack == required - arrival on every endpoint.
  for (const netlist::PinId ep : sta.endpoints()) {
    if (!std::isfinite(sta.slack_ps(ep))) continue;
    EXPECT_NEAR(sta.slack_ps(ep), sta.required_ps(ep) - sta.arrival_ps(ep), 1e-9);
  }
  // Arrival is non-decreasing along every reported path.
  for (const sta::TimingPath& path : sta.worst_paths(20)) {
    double previous = -1e18;
    for (const netlist::PinId pid : path.pins) {
      EXPECT_GE(sta.arrival_ps(pid) + 1e-9, previous);
      previous = sta.arrival_ps(pid);
    }
  }
}

TEST_P(StaProperty, ActivityBoundsHold) {
  gen::DesignSpec spec = gen::design_spec(GetParam());
  spec.target_cells = std::min(spec.target_cells, 800);
  const netlist::Netlist nl = gen::generate(lib(), spec);
  sta::ActivityOptions options;
  const auto act = sta::propagate_activity(nl, options);
  for (const auto& a : act) {
    EXPECT_GE(a.p_one, 0.0);
    EXPECT_LE(a.p_one, 1.0);
    EXPECT_GE(a.toggle, 0.0);
    EXPECT_LE(a.toggle, options.max_toggle);
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, StaProperty,
                         ::testing::Values("aes", "jpeg", "ariane"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// =============================================================================
// Placement invariants across utilizations
// =============================================================================

class PlaceProperty : public ::testing::TestWithParam<double> {};

TEST_P(PlaceProperty, LegalizedPlacementIsLegalAndInCore) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 350;
  netlist::Netlist nl = gen::generate(lib(), spec);
  place::FloorplanOptions fpo;
  fpo.utilization = GetParam();
  const place::Floorplan fp =
      place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  const place::PlaceModel model = place::make_place_model(nl, fp);
  const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
  const auto legal = place::legalize(model, gp.placement);
  EXPECT_EQ(legal.failed_count, 0) << "utilization " << GetParam();

  // In-core footprints and per-row non-overlap.
  std::map<long, std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    const auto& obj = model.objects[i];
    const auto& p = legal.placement[i];
    EXPECT_GE(p.x - obj.width_um / 2, fp.core.lx - 1e-6);
    EXPECT_LE(p.x + obj.width_um / 2, fp.core.ux + 1e-6);
    rows[std::lround(p.y * 1e6)].push_back(i);
  }
  for (auto& [y, cells] : rows) {
    std::sort(cells.begin(), cells.end(), [&](std::size_t a, std::size_t b) {
      return legal.placement[a].x < legal.placement[b].x;
    });
    for (std::size_t k = 1; k < cells.size(); ++k) {
      EXPECT_LE(legal.placement[cells[k - 1]].x +
                    model.objects[cells[k - 1]].width_um / 2,
                legal.placement[cells[k]].x -
                    model.objects[cells[k]].width_um / 2 + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, PlaceProperty,
                         ::testing::Values(0.4, 0.55, 0.7, 0.85),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "util" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

TEST(PlaceProperty, HpwlTranslationInvariant) {
  place::PlaceModel model;
  model.core = geom::Rect::make(0, 0, 50, 50);
  model.objects.resize(4);
  place::PlaceNet net;
  net.objects = {0, 1, 2, 3};
  net.weight = 1.7;
  model.nets.push_back(net);
  util::Rng rng(4);
  place::Placement placement(4);
  for (auto& p : placement) p = {rng.uniform(0, 50), rng.uniform(0, 50)};
  const double base = place::total_hpwl(model, placement);
  for (auto& p : placement) {
    p.x += 13.5;
    p.y -= 7.25;
  }
  EXPECT_NEAR(place::total_hpwl(model, placement), base, 1e-9);
}

// =============================================================================
// Routing invariants
// =============================================================================

TEST(RouteProperty, TreeLengthAtLeastBoundingBoxSpan) {
  // Any connected tree over a pin set is at least as long as the larger
  // side of the bounding box.
  util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<geom::Point> pins;
    const int n = rng.uniform_int(2, 15);
    geom::BBox box;
    for (int i = 0; i < n; ++i) {
      pins.push_back({rng.uniform(0, 80), rng.uniform(0, 60)});
      box.expand(pins.back());
    }
    const double span =
        std::max(box.rect().width(), box.rect().height());
    EXPECT_GE(route::total_length(route::spanning_segments(pins)) + 1e-9, span);
    EXPECT_GE(route::total_length(route::steiner_segments(pins)) + 1e-9, span);
  }
}

TEST(RouteProperty, UtilizationsNonNegativeAndConsistent) {
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 500;
  netlist::Netlist nl = gen::generate(lib(), spec);
  const place::Floorplan fp = place::Floorplan::create(
      nl.total_cell_area(), lib().row_height_um(), place::FloorplanOptions{});
  place::place_ports_on_boundary(nl, fp);
  const place::PlaceModel model = place::make_place_model(nl, fp);
  const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
  const auto positions = place::cell_positions(nl, gp.placement);
  const auto result =
      route::GlobalRouter(nl, positions, fp.core, route::RouteOptions{}).run();
  double max_seen = 0.0;
  for (const double u : result.edge_utilization) {
    EXPECT_GE(u, 0.0);
    max_seen = std::max(max_seen, u);
  }
  EXPECT_DOUBLE_EQ(max_seen, result.max_utilization);
  EXPECT_EQ(result.edge_utilization.size(),
            static_cast<std::size_t>(result.grid_nx - 1) * result.grid_ny +
                static_cast<std::size_t>(result.grid_nx) * (result.grid_ny - 1));
}

// =============================================================================
// Clustering invariants across hyperparameters
// =============================================================================

struct FcParam {
  double alpha;
  double beta;
  double gamma;
  double mu;
  std::uint64_t seed;
};

class FcProperty : public ::testing::TestWithParam<FcParam> {};

TEST_P(FcProperty, AssignmentIsCompleteAndCompact) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 400;
  const netlist::Netlist nl = gen::generate(lib(), spec);

  sta::StaOptions sta_options;
  sta_options.clock_period_ps = spec.clock_period_ps;
  sta::Sta sta(nl, sta_options);
  ASSERT_TRUE(sta.try_run().has_value());
  const auto timing = cluster::net_timing_costs(nl, sta, spec.clock_period_ps);
  const auto act = sta::propagate_activity(nl, sta::ActivityOptions{});
  const auto theta = cluster::net_switching_activity(nl, act);

  cluster::FcOptions options;
  options.alpha = GetParam().alpha;
  options.beta = GetParam().beta;
  options.gamma = GetParam().gamma;
  options.mu = GetParam().mu;
  options.seed = GetParam().seed;
  options.target_cluster_count = 20;
  cluster::FcPpaInputs inputs;
  inputs.net_timing_cost = &timing;
  inputs.net_switching = &theta;
  const cluster::FcResult result = cluster::fc_multilevel_cluster(nl, inputs, options);

  ASSERT_EQ(result.cluster_of_cell.size(), nl.cell_count());
  std::set<std::int32_t> used(result.cluster_of_cell.begin(),
                              result.cluster_of_cell.end());
  EXPECT_EQ(static_cast<std::int32_t>(used.size()), result.cluster_count);
  EXPECT_EQ(*used.begin(), 0);
  EXPECT_EQ(*used.rbegin(), result.cluster_count - 1);
  EXPECT_LE(result.cluster_count, static_cast<std::int32_t>(nl.cell_count()));
}

INSTANTIATE_TEST_SUITE_P(
    HyperparameterGrid, FcProperty,
    ::testing::Values(FcParam{1, 1, 1, 2, 1}, FcParam{4, 1, 1, 2, 2},
                      FcParam{1, 6, 1, 2, 3}, FcParam{1, 1, 6, 4, 4},
                      FcParam{0.5, 0.5, 0.5, 1, 5}, FcParam{2, 3, 2, 6, 6}),
    [](const ::testing::TestParamInfo<FcParam>& info) {
      return "cfg" + std::to_string(info.index);
    });

TEST(RentProperty, ExponentNeverExceedsOne) {
  // E(c) <= Ext(c) <= Int(c) + Ext(c), so ln(ratio) <= 0 and R <= 1; check
  // over random clusterings of a real design.
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 400;
  const netlist::Netlist nl = gen::generate(lib(), spec);
  util::Rng rng(9);
  for (const int k : {2, 5, 17, 50}) {
    std::vector<std::int32_t> assignment(nl.cell_count());
    for (auto& c : assignment) c = static_cast<std::int32_t>(rng.index(k));
    for (const auto& term : hier::rent_terms(nl, assignment, k)) {
      EXPECT_LE(term.rent, 1.0 + 1e-12);
    }
  }
}

TEST(CommunityProperty, ModularityBoundedAndDeterministic) {
  gen::DesignSpec spec = gen::design_spec("ariane");
  spec.target_cells = 500;
  const netlist::Netlist nl = gen::generate(lib(), spec);
  const cluster::Graph graph = cluster::clique_expand(nl);
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    cluster::CommunityOptions options;
    options.seed = seed;
    const auto a = cluster::louvain(graph, options);
    const auto b = cluster::louvain(graph, options);
    EXPECT_EQ(a.community, b.community) << "seed " << seed;
    EXPECT_GE(a.modularity, -1.0);
    EXPECT_LE(a.modularity, 1.0);
  }
}

TEST(CommunityProperty, LeidenCommunitiesAreValidPartitions) {
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 500;
  const netlist::Netlist nl = gen::generate(lib(), spec);
  const cluster::Graph graph = cluster::clique_expand(nl);
  const auto result = cluster::leiden(graph, cluster::CommunityOptions{});
  std::set<std::int32_t> used(result.community.begin(), result.community.end());
  EXPECT_EQ(static_cast<std::int32_t>(used.size()), result.community_count);
  for (const std::int32_t c : result.community) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, result.community_count);
  }
}

// =============================================================================
// Dendrogram invariant: levelization puts every leaf at level_max
// =============================================================================

class DendrogramProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DendrogramProperty, AllLeavesAtLevelMax) {
  gen::DesignSpec spec = gen::design_spec(GetParam());
  spec.target_cells = std::min(spec.target_cells, 900);
  const netlist::Netlist nl = gen::generate(lib(), spec);
  const hier::Dendrogram dendro(nl);
  for (const hier::DendroNode& node : dendro.nodes()) {
    if (node.children.empty()) {
      EXPECT_EQ(node.level, dendro.level_max()) << "node " << node.id;
    }
    if (node.parent >= 0) {
      EXPECT_EQ(node.level,
                dendro.nodes()[static_cast<std::size_t>(node.parent)].level + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, DendrogramProperty,
                         ::testing::Values("aes", "jpeg", "ariane",
                                           "BlackParrot"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// =============================================================================
// Fault-plan spec round-trip: parse(to_spec(plan)) == plan
// =============================================================================

TEST(FaultPlanProperty, SpecRoundTripsOverSiteKindSelectorSweep) {
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kError, fault::FaultKind::kTimeout,
      fault::FaultKind::kPoison, fault::FaultKind::kAlloc};
  const double probabilities[] = {1.0, 0.5, 0.125};
  const std::uint64_t nths[] = {0, 1, 17};
  std::uint64_t seed = 1;
  for (const std::string& site : fault::registered_sites()) {
    for (const fault::FaultKind kind : kinds) {
      for (const double probability : probabilities) {
        for (const std::uint64_t nth : nths) {
          fault::FaultPlan plan;
          plan.seed = seed++;
          plan.specs.push_back(fault::FaultSpec{site, kind, nth, probability});
          const std::string spec = fault::to_spec(plan);
          auto parsed = fault::parse_plan(spec);
          ASSERT_TRUE(parsed.has_value()) << spec;
          EXPECT_TRUE(parsed.value() == plan) << spec;
        }
      }
    }
  }
}

TEST(FaultPlanProperty, MultiSitePlanRoundTripsCanonically) {
  // A plan covering every site at once; parse/to_spec must be a fixpoint
  // (canonical form: sorted sites, one spec each).
  auto parsed = fault::parse_plan(
      "seed=42;route.maze=error%0.25;io.read=alloc;vpr.shape_eval=poison@3;"
      "sta.arrival=timeout;ml.predict=error@2%0.5;place.solve=error;"
      "route.maze=timeout");  // last entry per site wins
  ASSERT_TRUE(parsed.has_value());
  const std::string canonical = fault::to_spec(parsed.value());
  auto reparsed = fault::parse_plan(canonical);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed.value() == parsed.value()) << canonical;
  EXPECT_EQ(fault::to_spec(reparsed.value()), canonical);
  // "route.maze=timeout" replaced the earlier error%0.25 spec.
  for (const fault::FaultSpec& spec : reparsed.value().specs) {
    if (spec.site == "route.maze") {
      EXPECT_EQ(spec.kind, fault::FaultKind::kTimeout);
      EXPECT_EQ(spec.probability, 1.0);
    }
  }
}

}  // namespace
}  // namespace ppacd
