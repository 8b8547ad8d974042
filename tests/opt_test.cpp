#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "opt/buffering.hpp"
#include "opt/sizing.hpp"
#include "sta/sta.hpp"

namespace ppacd::opt {
namespace {

using netlist::NetId;
using netlist::Netlist;

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

struct PlacedDesign {
  explicit PlacedDesign(const char* name = "aes", int cells = 600) {
    gen::DesignSpec spec = gen::design_spec(name);
    spec.target_cells = cells;
    clock_ps = spec.clock_period_ps;
    nl.emplace(gen::generate(lib(), spec));
    flow::FlowOptions options;
    options.strategy = flow::PlaceStrategy::kFlat;
    options.clock_period_ps = clock_ps;
    options.vpr.min_cluster_instances = 1 << 20;
    const flow::FlowResult result = flow::try_run(*nl, options).value();
    positions = result.place.positions;
  }
  std::optional<Netlist> nl;
  std::vector<geom::Point> positions;
  double clock_ps = 1000.0;
};

// --- Buffering -----------------------------------------------------------------

TEST(Buffering, SplitsHighFanoutNets) {
  PlacedDesign d;
  std::size_t worst_before = 0;
  for (std::size_t ni = 0; ni < d.nl->net_count(); ++ni) {
    const auto& net = d.nl->net(static_cast<NetId>(ni));
    if (!net.is_clock) worst_before = std::max(worst_before, net.pins.size());
  }
  BufferingOptions options;
  options.max_fanout = 8;
  options.sinks_per_buffer = 4;
  const BufferingResult result =
      buffer_high_fanout(*d.nl, d.positions, options);
  ASSERT_GT(result.buffered_nets, 0)
      << "worst non-clock fanout " << worst_before;
  EXPECT_GT(result.inserted_buffers, 0);
  EXPECT_TRUE(d.nl->validate().empty());
  EXPECT_EQ(d.positions.size(), d.nl->cell_count());

  // No non-clock net exceeds max(trunk = buffers-per-net, leaf group size)
  // beyond the pre-pass worst... concretely: every original high-fanout net
  // was reduced.
  std::size_t worst_after = 0;
  for (std::size_t ni = 0; ni < d.nl->net_count(); ++ni) {
    const auto& net = d.nl->net(static_cast<NetId>(ni));
    if (!net.is_clock) worst_after = std::max(worst_after, net.pins.size());
  }
  EXPECT_LT(worst_after, worst_before);
}

TEST(Buffering, ImprovesWorstSlackOnHubHeavyDesign) {
  PlacedDesign d("aes", 800);
  sta::StaOptions sta_options;
  sta_options.clock_period_ps = d.clock_ps;
  sta_options.cell_positions = &d.positions;
  sta::Sta before(*d.nl, sta_options);
  ASSERT_TRUE(before.try_run().has_value());

  BufferingOptions options;
  options.max_fanout = 16;
  buffer_high_fanout(*d.nl, d.positions, options);
  sta::Sta after(*d.nl, sta_options);
  ASSERT_TRUE(after.try_run().has_value());
  // Buffering trades a little insertion delay for far smaller loads on hub
  // drivers; TNS must not get dramatically worse and usually improves.
  EXPECT_GE(after.tns_ns(), before.tns_ns() * 1.2);  // at most 20% worse
}

TEST(Buffering, ClockNetUntouched) {
  PlacedDesign d;
  NetId clk = netlist::kInvalidId;
  for (std::size_t ni = 0; ni < d.nl->net_count(); ++ni) {
    if (d.nl->net(static_cast<NetId>(ni)).is_clock) clk = static_cast<NetId>(ni);
  }
  ASSERT_NE(clk, netlist::kInvalidId);
  const std::size_t degree_before = d.nl->net(clk).pins.size();
  BufferingOptions options;
  options.max_fanout = 4;  // would shred the clock if not excluded
  buffer_high_fanout(*d.nl, d.positions, options);
  EXPECT_EQ(d.nl->net(clk).pins.size(), degree_before);
}

TEST(Buffering, NoOpWhenThresholdHuge) {
  PlacedDesign d;
  BufferingOptions options;
  options.max_fanout = 1 << 20;
  const BufferingResult result =
      buffer_high_fanout(*d.nl, d.positions, options);
  EXPECT_EQ(result.buffered_nets, 0);
  EXPECT_EQ(result.inserted_buffers, 0);
}

// --- Sizing --------------------------------------------------------------------

TEST(Sizing, ImprovesTimingOnViolatingDesign) {
  PlacedDesign d("aes", 800);
  SizingOptions options;
  options.clock_period_ps = d.clock_ps;
  const SizingResult result =
      resize_critical_cells(*d.nl, d.positions, options);
  EXPECT_TRUE(d.nl->validate().empty());
  ASSERT_LT(result.wns_before_ps, 0.0) << "test design must violate";
  EXPECT_GT(result.upsized_cells, 0);
  EXPECT_GE(result.wns_after_ps, result.wns_before_ps);
  EXPECT_GE(result.tns_after_ns, result.tns_before_ns);
}

TEST(Sizing, RespectsRoundBudget) {
  PlacedDesign d("aes", 500);
  SizingOptions options;
  options.clock_period_ps = d.clock_ps;
  options.max_rounds = 1;
  const SizingResult result =
      resize_critical_cells(*d.nl, d.positions, options);
  EXPECT_LE(result.rounds, 1);
}

TEST(Sizing, NoOpWhenTimingClean) {
  PlacedDesign d("aes", 400);
  SizingOptions options;
  options.clock_period_ps = 1e7;  // everything meets timing
  const SizingResult result =
      resize_critical_cells(*d.nl, d.positions, options);
  EXPECT_EQ(result.upsized_cells, 0);
  EXPECT_DOUBLE_EQ(result.wns_after_ps, 0.0);
}

TEST(Sizing, SwapLibCellPreservesConnectivity) {
  Netlist nl(lib(), "t");
  const auto x1 = *lib().find("INV_X1");
  const auto x2 = *lib().find("INV_X2");
  const auto a = nl.add_cell("a", x1, nl.root_module());
  const auto in = nl.add_port("in", liberty::PinDir::kInput);
  const auto out = nl.add_port("out", liberty::PinDir::kOutput);
  const auto n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(in).pin);
  nl.connect(n0, nl.cell_pin(a, 0));
  const auto n1 = nl.add_net("n1");
  nl.connect(n1, nl.cell_output_pin(a));
  nl.connect(n1, nl.port(out).pin);

  nl.swap_lib_cell(a, x2);
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.cell(a).lib_cell, x2);
  EXPECT_DOUBLE_EQ(nl.lib_cell_of(a).drive_res_kohm,
                   lib().cell(x2).drive_res_kohm);
}

TEST(Sizing, DisconnectDetachesSink) {
  Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  const auto a = nl.add_cell("a", inv, nl.root_module());
  const auto b = nl.add_cell("b", inv, nl.root_module());
  const auto n = nl.add_net("n");
  nl.connect(n, nl.cell_output_pin(a));
  nl.connect(n, nl.cell_pin(b, 0));
  EXPECT_EQ(nl.net(n).pins.size(), 2u);
  nl.disconnect(nl.cell_pin(b, 0));
  EXPECT_EQ(nl.net(n).pins.size(), 1u);
  EXPECT_EQ(nl.pin(nl.cell_pin(b, 0)).net, netlist::kInvalidId);
}

// --- Combined pipeline -----------------------------------------------------------

TEST(TimingOpt, BufferThenSizePipeline) {
  PlacedDesign d("jpeg", 900);
  sta::StaOptions sta_options;
  sta_options.clock_period_ps = d.clock_ps;
  sta_options.cell_positions = &d.positions;
  sta::Sta before(*d.nl, sta_options);
  ASSERT_TRUE(before.try_run().has_value());

  BufferingOptions buf;
  buf.max_fanout = 20;
  buffer_high_fanout(*d.nl, d.positions, buf);
  SizingOptions size;
  size.clock_period_ps = d.clock_ps;
  const SizingResult sized = resize_critical_cells(*d.nl, d.positions, size);

  EXPECT_TRUE(d.nl->validate().empty());
  // The pipeline should not be worse than the raw design.
  EXPECT_GE(sized.tns_after_ns, before.tns_ns());
}

}  // namespace
}  // namespace ppacd::opt
