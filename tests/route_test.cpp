#include <gtest/gtest.h>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "route/global_router.hpp"
#include "route/steiner.hpp"

namespace ppacd::route {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

TEST(Steiner, TwoPinsOneSegment) {
  const auto segs = spanning_segments({{0, 0}, {3, 4}});
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(total_length(segs), 7.0);
}

TEST(Steiner, FewerThanTwoPinsEmpty) {
  EXPECT_TRUE(spanning_segments({}).empty());
  EXPECT_TRUE(spanning_segments({{1, 1}}).empty());
}

TEST(Steiner, TreeSpansAllPins) {
  const std::vector<geom::Point> pins = {{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}};
  const auto segs = spanning_segments(pins);
  EXPECT_EQ(segs.size(), pins.size() - 1);
}

TEST(Steiner, MstNotWorseThanStar) {
  // MST length must be <= star from any pin.
  std::vector<geom::Point> pins;
  for (int i = 0; i < 20; ++i) {
    pins.push_back({static_cast<double>(i * 7 % 50), static_cast<double>(i * 13 % 40)});
  }
  const double mst = total_length(spanning_segments(pins));
  double star = 0.0;
  for (std::size_t i = 1; i < pins.size(); ++i) {
    star += geom::manhattan(pins[0], pins[i]);
  }
  EXPECT_LE(mst, star + 1e-9);
}

TEST(Steiner, CollinearPinsChainLength) {
  const auto segs = spanning_segments({{0, 0}, {5, 0}, {10, 0}, {2, 0}});
  EXPECT_DOUBLE_EQ(total_length(segs), 10.0);
}

struct RoutedDesign {
  explicit RoutedDesign(int cells = 500) : nl(make(cells)) {
    place::FloorplanOptions fpo;
    fpo.utilization = 0.6;
    fp = place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(), fpo);
    place::place_ports_on_boundary(nl, fp);
    const place::PlaceModel model = place::make_place_model(nl, fp);
    const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
    const auto lg = place::legalize(model, gp.placement);
    positions = place::cell_positions(nl, lg.placement);
  }
  static netlist::Netlist make(int cells) {
    gen::DesignSpec spec = gen::design_spec("aes");
    spec.target_cells = cells;
    return gen::generate(lib(), spec);
  }
  RouteResult route(const std::vector<geom::Point>& cells,
                    const RouteOptions& options) const {
    return GlobalRouter(nl, cells, fp.core, options).run();
  }
  netlist::Netlist nl;
  place::Floorplan fp;
  std::vector<geom::Point> positions;
};

TEST(GlobalRouter, RoutedWirelengthAtLeastGridHpwl) {
  RoutedDesign d;
  GlobalRouter router(d.nl, d.positions, d.fp.core, RouteOptions{});
  const RouteResult result = router.run();
  EXPECT_GT(result.wirelength_um, 0.0);
  EXPECT_GT(result.grid_nx, 1);
  EXPECT_GT(result.grid_ny, 1);
  // Routed length can't be shorter than ~the sum of net HPWLs minus the
  // quantization of the GCell grid (allow generous slack for small nets that
  // collapse into one GCell).
  const double hpwl = place::netlist_hpwl(d.nl, d.positions);
  EXPECT_GT(result.wirelength_um, 0.3 * hpwl);
}

TEST(GlobalRouter, UtilizationsExposedForEquation5) {
  RoutedDesign d;
  GlobalRouter router(d.nl, d.positions, d.fp.core, RouteOptions{});
  const RouteResult result = router.run();
  ASSERT_FALSE(result.edge_utilization.empty());
  // Top-1% congestion >= top-50% congestion >= 0.
  const double top1 = result.top_congestion(1.0);
  const double top50 = result.top_congestion(50.0);
  EXPECT_GE(top1, top50);
  EXPECT_GE(top50, 0.0);
  EXPECT_GE(result.max_utilization, top1 - 1e-12);
}

TEST(GlobalRouter, RerouteReducesOverflow) {
  RoutedDesign d;
  // Tight but not hopeless: with globally over-subscribed capacity the total
  // overflow is conserved and negotiation can only redistribute it.
  RouteOptions tight;
  tight.h_capacity = 6;
  tight.v_capacity = 6;
  RouteOptions no_rrr = tight;
  no_rrr.rrr_rounds = 0;
  const RouteResult base = d.route(d.positions, no_rrr);
  const RouteResult improved = d.route(d.positions, tight);
  EXPECT_LT(improved.total_overflow, base.total_overflow);
}

TEST(GlobalRouter, ClockNetSkippedByDefault) {
  RoutedDesign d;
  RouteOptions with_clock;
  with_clock.route_clock_nets = true;
  const RouteResult without = d.route(d.positions, RouteOptions{});
  const RouteResult with = d.route(d.positions, with_clock);
  EXPECT_GT(with.wirelength_um, without.wirelength_um);
}

TEST(GlobalRouter, SpreadPlacementRoutesLonger) {
  RoutedDesign d;
  // Same netlist, same grid, but a random placement should route longer
  // than the optimized one.
  util::Rng rng(3);
  std::vector<geom::Point> random(d.positions.size());
  for (auto& p : random) {
    p = {rng.uniform(d.fp.core.lx, d.fp.core.ux),
         rng.uniform(d.fp.core.ly, d.fp.core.uy)};
  }
  const RouteResult good = d.route(d.positions, RouteOptions{});
  const RouteResult bad = d.route(random, RouteOptions{});
  EXPECT_LT(good.wirelength_um, bad.wirelength_um);
}

}  // namespace
}  // namespace ppacd::route
