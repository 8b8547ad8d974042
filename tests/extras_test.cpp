/// Tests for Best-Choice clustering, Steiner refinement, the maze-routing
/// fallback, the STA report, model serialization and the visualization
/// exports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/best_choice.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "ml/dataset.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "route/global_router.hpp"
#include "route/steiner.hpp"
#include "sta/report.hpp"
#include "viz/viz.hpp"

namespace ppacd {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

netlist::Netlist sample(int cells = 400, const char* name = "aes") {
  gen::DesignSpec spec = gen::design_spec(name);
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

// --- Best Choice ---------------------------------------------------------------

TEST(BestChoice, ReachesTarget) {
  const netlist::Netlist nl = sample(500);
  cluster::BestChoiceOptions options;
  options.target_cluster_count = 20;
  const cluster::BestChoiceResult result = cluster::best_choice_cluster(nl, options);
  ASSERT_EQ(result.cluster_of_cell.size(), nl.cell_count());
  EXPECT_GE(result.cluster_count, 20);
  EXPECT_LE(result.cluster_count, 120);  // isolated vertices may remain
  EXPECT_GT(result.merges, 0);
}

TEST(BestChoice, AreaCapRespected) {
  const netlist::Netlist nl = sample(500);
  cluster::BestChoiceOptions options;
  options.target_cluster_count = 10;
  options.max_cluster_area_factor = 1.5;
  const cluster::BestChoiceResult result = cluster::best_choice_cluster(nl, options);
  std::vector<double> area(static_cast<std::size_t>(result.cluster_count), 0.0);
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    area[static_cast<std::size_t>(result.cluster_of_cell[ci])] +=
        nl.lib_cell_of(static_cast<netlist::CellId>(ci)).area_um2();
  }
  const double cap = 1.5 * nl.total_cell_area() / 10.0;
  for (const double a : area) EXPECT_LE(a, cap + 1e-6);
}

TEST(BestChoice, MergesConnectedPairsFirst) {
  // Two strongly connected cells plus one loner: the pair must merge.
  netlist::Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  const auto nand2 = *lib().find("NAND2_X1");
  const auto a = nl.add_cell("a", inv, nl.root_module());
  const auto b = nl.add_cell("b", nand2, nl.root_module());
  const auto c = nl.add_cell("c", inv, nl.root_module());
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.cell_output_pin(a));
  nl.connect(n1, nl.cell_pin(b, 0));
  const auto n2 = nl.add_net("n2");
  nl.connect(n2, nl.cell_output_pin(c));
  nl.connect(n2, nl.cell_pin(b, 1));

  cluster::BestChoiceOptions options;
  options.target_cluster_count = 2;
  const auto result = cluster::best_choice_cluster(nl, options);
  EXPECT_EQ(result.cluster_count, 2);
  // a-b weight == c-b weight; area decides: a(INV)+b vs c(INV)+b equal...
  // so just require SOME pair merged and the result is a valid 2-clustering.
  EXPECT_NE(result.cluster_of_cell[a.index()],
            result.cluster_of_cell[c.index()]);
}

TEST(BestChoice, FlowIntegration) {
  netlist::Netlist nl = sample(400);
  flow::FlowOptions options;
  options.clock_period_ps = 1100.0;
  options.cluster_method = flow::ClusterMethod::kBestChoice;
  options.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult result = flow::try_run(nl, options).value();
  EXPECT_GT(result.place.cluster_count, 1);
  EXPECT_GT(result.place.hpwl_um, 0.0);
}

// --- Steiner refinement ----------------------------------------------------------

TEST(Steiner, RefinementNeverLonger) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<geom::Point> pins;
    const int n = rng.uniform_int(3, 24);
    for (int i = 0; i < n; ++i) {
      pins.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
    }
    const double mst = route::total_length(route::spanning_segments(pins));
    const double steiner = route::total_length(route::steiner_segments(pins));
    EXPECT_LE(steiner, mst + 1e-9) << "trial " << trial;
  }
}

TEST(Steiner, ClassicTJunctionImproves) {
  // Three pins in a T: RMST length 3, RSMT length 2 + 1 = ... concretely:
  // (0,0), (2,0), (1,1): MST = 2 + 2 = 4 via manhattan; Steiner point at
  // (1,0) gives 1 + 1 + 1 = 3.
  const std::vector<geom::Point> pins = {{0, 0}, {2, 0}, {1, 1}};
  const double mst = route::total_length(route::spanning_segments(pins));
  const double steiner = route::total_length(route::steiner_segments(pins));
  EXPECT_DOUBLE_EQ(mst, 4.0);
  EXPECT_DOUBLE_EQ(steiner, 3.0);
}

TEST(Steiner, TwoPinsUnchanged) {
  const std::vector<geom::Point> pins = {{0, 0}, {5, 7}};
  EXPECT_DOUBLE_EQ(route::total_length(route::steiner_segments(pins)), 12.0);
}

// --- Maze fallback ---------------------------------------------------------------

TEST(Router, MazeFallbackNotWorse) {
  netlist::Netlist nl = sample(400);
  flow::FlowOptions fo;
  fo.clock_period_ps = 1100.0;
  fo.strategy = flow::PlaceStrategy::kFlat;
  fo.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult placed = flow::try_run(nl, fo).value();

  geom::BBox box;
  for (const auto& p : placed.place.positions) box.expand(p);
  route::RouteOptions tight;
  tight.h_capacity = 5;
  tight.v_capacity = 5;
  route::RouteOptions no_maze = tight;
  no_maze.maze_fallback = false;
  const std::vector<geom::Point>& cells = placed.place.positions;
  const auto with_maze =
      route::GlobalRouter(nl, cells, box.rect(), tight).run();
  const auto without =
      route::GlobalRouter(nl, cells, box.rect(), no_maze).run();
  // Greedy negotiation can tie or wobble slightly; the maze must stay in
  // the same ballpark or better and never blow up.
  EXPECT_LE(with_maze.total_overflow, without.total_overflow * 1.05 + 5.0);
  EXPECT_LE(with_maze.wirelength_um, without.wirelength_um * 1.10);
}

TEST(Router, SteinerTopologyShortens) {
  netlist::Netlist nl = sample(400);
  flow::FlowOptions fo;
  fo.clock_period_ps = 1100.0;
  fo.strategy = flow::PlaceStrategy::kFlat;
  fo.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult placed = flow::try_run(nl, fo).value();
  geom::BBox box;
  for (const auto& p : placed.place.positions) box.expand(p);
  route::RouteOptions steiner;
  route::RouteOptions mst;
  mst.use_steiner_topology = false;
  const std::vector<geom::Point>& cells = placed.place.positions;
  const auto a = route::GlobalRouter(nl, cells, box.rect(), steiner).run();
  const auto b = route::GlobalRouter(nl, cells, box.rect(), mst).run();
  EXPECT_LE(a.wirelength_um, b.wirelength_um * 1.01);
}

// --- STA report ------------------------------------------------------------------

TEST(StaReport, NamesAndStructure) {
  netlist::Netlist nl = sample(200);
  sta::StaOptions options;
  options.clock_period_ps = 100.0;  // far below any path: force violations
  sta::Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());
  const std::string report = sta::report_checks(nl, sta, 2);
  EXPECT_NE(report.find("Startpoint:"), std::string::npos);
  EXPECT_NE(report.find("Endpoint:"), std::string::npos);
  EXPECT_NE(report.find("slack"), std::string::npos);
  EXPECT_NE(report.find("VIOLATED"), std::string::npos);

  const std::string summary = sta::report_summary(nl, sta);
  EXPECT_NE(summary.find("WNS"), std::string::npos);
  EXPECT_NE(summary.find("endpoints violating"), std::string::npos);
}

TEST(StaReport, PinNames) {
  netlist::Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  const auto cell = nl.add_cell("u1", inv, nl.root_module());
  const auto port = nl.add_port("data_in", liberty::PinDir::kInput);
  EXPECT_EQ(sta::pin_name(nl, nl.cell_pin(cell, 0)), "u1/A");
  EXPECT_EQ(sta::pin_name(nl, nl.cell_output_pin(cell)), "u1/Y");
  EXPECT_EQ(sta::pin_name(nl, nl.port(port).pin), "data_in");
}

// --- Model serialization ------------------------------------------------------------

TEST(ModelSerialize, RoundTripPredictsIdentically) {
  // Tiny dataset -> train briefly -> save -> load -> identical predictions.
  netlist::Netlist nl = sample(400);
  ml::DatasetOptions dataset_options;
  dataset_options.min_cluster_size = 20;
  dataset_options.max_cluster_size = 120;
  dataset_options.max_clusters_per_design = 6;
  dataset_options.clustering_configs = 2;
  const ml::Dataset dataset =
      ml::build_dataset({&nl}, dataset_options, vpr::VprOptions{});
  ASSERT_GE(dataset.clusters.size(), 3u);
  ml::TrainOptions train_options;
  train_options.epochs = 2;
  const ml::TrainResult trained = ml::train_total_cost_model(dataset, train_options);

  std::stringstream buffer;
  ml::save_model(*trained.model, ml::GnnConfig{}, buffer);
  const auto loaded = ml::load_model(buffer);
  ASSERT_NE(loaded, nullptr);

  for (const auto& sample : dataset.clusters) {
    for (const auto& shape : dataset.shapes) {
      EXPECT_DOUBLE_EQ(trained.model->predict(sample.graph, shape),
                       loaded->predict(sample.graph, shape));
    }
  }
}

TEST(ModelSerialize, RejectsCorruptStream) {
  std::stringstream buffer("not a model");
  EXPECT_EQ(ml::load_model(buffer), nullptr);
}

TEST(ModelSerialize, FileRoundTrip) {
  netlist::Netlist nl = sample(300);
  ml::DatasetOptions dataset_options;
  dataset_options.min_cluster_size = 20;
  dataset_options.max_cluster_size = 120;
  dataset_options.max_clusters_per_design = 4;
  dataset_options.clustering_configs = 1;
  const ml::Dataset dataset =
      ml::build_dataset({&nl}, dataset_options, vpr::VprOptions{});
  ml::TrainOptions train_options;
  train_options.epochs = 1;
  const ml::TrainResult trained = ml::train_total_cost_model(dataset, train_options);

  const std::string path = "/tmp/ppacd_model_test.bin";
  ASSERT_TRUE(ml::save_model_file(*trained.model, ml::GnnConfig{}, path));
  const auto loaded = ml::load_model_file(path);
  ASSERT_NE(loaded, nullptr);
  std::remove(path.c_str());
}

// --- Visualization ------------------------------------------------------------------

TEST(Viz, PlacementSvgStructure) {
  netlist::Netlist nl = sample(100);
  flow::FlowOptions fo;
  fo.clock_period_ps = 1100.0;
  fo.strategy = flow::PlaceStrategy::kFlat;
  fo.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult placed = flow::try_run(nl, fo).value();
  geom::BBox box;
  for (const auto& p : placed.place.positions) box.expand(p);

  std::ostringstream out;
  viz::SvgOptions options;
  viz::write_placement_svg(nl, placed.place.positions, box.rect(), options, out);
  const std::string svg = out.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per cell plus the background.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, nl.cell_count() + 1);
}

TEST(Viz, CongestionPpmHeader) {
  netlist::Netlist nl = sample(200);
  flow::FlowOptions fo;
  fo.clock_period_ps = 1100.0;
  fo.strategy = flow::PlaceStrategy::kFlat;
  fo.vpr.min_cluster_instances = 1 << 20;
  const flow::FlowResult placed = flow::try_run(nl, fo).value();
  geom::BBox box;
  for (const auto& p : placed.place.positions) box.expand(p);
  const auto routed = route::GlobalRouter(nl, placed.place.positions, box.rect(),
                                          route::RouteOptions{})
                          .run();
  std::ostringstream out;
  viz::write_congestion_ppm(routed, out);
  const std::string ppm = out.str();
  std::istringstream header(ppm);
  std::string magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  header >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, routed.grid_nx);
  EXPECT_EQ(h, routed.grid_ny);
  EXPECT_EQ(maxval, 255);
  // Payload: exactly 3 bytes per pixel after the header newline.
  const std::size_t header_len = ppm.find("255\n") + 4;
  EXPECT_EQ(ppm.size() - header_len, static_cast<std::size_t>(w) * h * 3);
}

}  // namespace
}  // namespace ppacd
