#include <gtest/gtest.h>

#include "cts/cts.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/model.hpp"
#include "sta/sta.hpp"

namespace ppacd::cts {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

struct PlacedDesign {
  explicit PlacedDesign(int cells = 400) : nl(make(cells)) {
    fp = place::Floorplan::create(nl.total_cell_area(), lib().row_height_um(),
                                  place::FloorplanOptions{});
    place::place_ports_on_boundary(nl, fp);
    const place::PlaceModel model = place::make_place_model(nl, fp);
    const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
    positions = place::cell_positions(nl, gp.placement);
  }
  static netlist::Netlist make(int cells) {
    gen::DesignSpec spec = gen::design_spec("jpeg");
    spec.target_cells = cells;
    return gen::generate(lib(), spec);
  }
  netlist::Netlist nl;
  place::Floorplan fp;
  std::vector<geom::Point> positions;
};

TEST(Cts, BuildsTreeOverAllRegisters) {
  PlacedDesign d;
  const ClockTreeResult tree = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});
  EXPECT_GT(tree.buffer_count, 0);
  EXPECT_GT(tree.wirelength_um, 0.0);
  EXPECT_GT(tree.total_cap_ff, 0.0);
  std::size_t with_delay = 0;
  std::size_t regs = 0;
  for (std::size_t ci = 0; ci < d.nl.cell_count(); ++ci) {
    const bool seq = liberty::is_sequential(
        d.nl.lib_cell_of(static_cast<netlist::CellId>(ci)).function);
    if (seq) {
      ++regs;
      if (tree.insertion_delay_ps[ci] > 0.0) ++with_delay;
    } else {
      EXPECT_DOUBLE_EQ(tree.insertion_delay_ps[ci], 0.0);
    }
  }
  EXPECT_EQ(with_delay, regs);
}

TEST(Cts, SkewIsBounded) {
  PlacedDesign d;
  const ClockTreeResult tree = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});
  EXPECT_GE(tree.max_skew_ps, 0.0);
  // Balanced geometric tree: skew well below the worst insertion delay.
  double max_delay = 0.0;
  for (const double v : tree.insertion_delay_ps) max_delay = std::max(max_delay, v);
  EXPECT_LT(tree.max_skew_ps, max_delay);
}

TEST(Cts, SmallerFanoutMeansMoreBuffers) {
  PlacedDesign d;
  CtsOptions wide;
  wide.max_sinks_per_buffer = 32;
  CtsOptions narrow;
  narrow.max_sinks_per_buffer = 4;
  const ClockTreeResult a = synthesize_clock_tree(d.nl, d.positions, wide);
  const ClockTreeResult b = synthesize_clock_tree(d.nl, d.positions, narrow);
  EXPECT_GT(b.buffer_count, a.buffer_count);
}

TEST(Cts, NoRegistersNoTree) {
  netlist::Netlist nl(lib(), "comb");
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

  const std::vector<geom::Point> positions(1, geom::Point{0, 0});
  const ClockTreeResult tree = synthesize_clock_tree(nl, positions, CtsOptions{});
  EXPECT_EQ(tree.buffer_count, 0);
  EXPECT_DOUBLE_EQ(tree.wirelength_um, 0.0);
}

TEST(Cts, InsertionDelaysFeedSta) {
  PlacedDesign d;
  const ClockTreeResult tree = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});

  sta::StaOptions base_options;
  base_options.clock_period_ps = 800.0;
  base_options.cell_positions = &d.positions;
  sta::Sta ideal(d.nl, base_options);
  ASSERT_TRUE(ideal.try_run().has_value());

  sta::StaOptions cts_options = base_options;
  cts_options.clock_arrivals_ps = &tree.insertion_delay_ps;
  sta::Sta skewed(d.nl, cts_options);
  ASSERT_TRUE(skewed.try_run().has_value());

  // Post-CTS timing differs from ideal-clock timing (skew shifts slacks),
  // and both produce finite results.
  EXPECT_TRUE(std::isfinite(skewed.wns_ps()));
  bool any_slack_changed = false;
  for (const netlist::PinId ep : ideal.endpoints()) {
    if (std::isinf(ideal.slack_ps(ep)) || std::isinf(skewed.slack_ps(ep))) continue;
    if (std::fabs(ideal.slack_ps(ep) - skewed.slack_ps(ep)) > 1e-9) {
      any_slack_changed = true;
      break;
    }
  }
  EXPECT_TRUE(any_slack_changed);
}

class CtsFanoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(CtsFanoutSweep, TreeInvariantsHoldAcrossFanouts) {
  PlacedDesign d;
  CtsOptions options;
  options.max_sinks_per_buffer = GetParam();
  const ClockTreeResult tree = synthesize_clock_tree(d.nl, d.positions, options);
  EXPECT_GT(tree.buffer_count, 0);
  EXPECT_GT(tree.wirelength_um, 0.0);
  EXPECT_GE(tree.max_skew_ps, 0.0);
  EXPECT_GT(tree.total_cap_ff, 0.0);
  // Every register has a strictly positive insertion delay.
  for (std::size_t ci = 0; ci < d.nl.cell_count(); ++ci) {
    const bool seq = liberty::is_sequential(
        d.nl.lib_cell_of(static_cast<netlist::CellId>(ci)).function);
    if (seq) {
      EXPECT_GT(tree.insertion_delay_ps[ci], 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, CtsFanoutSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "fanout" + std::to_string(info.param);
                         });

TEST(Cts, DeterministicTree) {
  PlacedDesign d;
  const ClockTreeResult a = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});
  const ClockTreeResult b = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});
  EXPECT_EQ(a.buffer_count, b.buffer_count);
  EXPECT_DOUBLE_EQ(a.wirelength_um, b.wirelength_um);
  EXPECT_EQ(a.insertion_delay_ps, b.insertion_delay_ps);
}

TEST(Cts, TighterPlacementShorterTree) {
  // Shrinking all sink coordinates toward the centroid must not lengthen
  // the clock tree.
  PlacedDesign d;
  const ClockTreeResult spread = synthesize_clock_tree(d.nl, d.positions, CtsOptions{});
  geom::Point centroid;
  for (const auto& p : d.positions) {
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(d.positions.size());
  centroid.y /= static_cast<double>(d.positions.size());
  std::vector<geom::Point> tight = d.positions;
  for (auto& p : tight) {
    p.x = centroid.x + 0.3 * (p.x - centroid.x);
    p.y = centroid.y + 0.3 * (p.y - centroid.y);
  }
  const ClockTreeResult compact = synthesize_clock_tree(d.nl, tight, CtsOptions{});
  EXPECT_LT(compact.wirelength_um, spread.wirelength_um);
}

}  // namespace
}  // namespace ppacd::cts
