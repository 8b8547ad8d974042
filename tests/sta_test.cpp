#include <gtest/gtest.h>

#include <cmath>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"

namespace ppacd::sta {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PortId;

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

/// in -> INV(a) -> INV(b) -> DFF(d).D, clk -> DFF.CK, DFF.Q -> out.
struct Chain {
  explicit Chain(double period) : nl(lib(), "chain"), options() {
    const auto inv = *lib().find("INV_X1");
    const auto dff = *lib().find("DFF_X1");
    a = nl.add_cell("a", inv, nl.root_module());
    b = nl.add_cell("b", inv, nl.root_module());
    d = nl.add_cell("d", dff, nl.root_module());
    in = nl.add_port("in", liberty::PinDir::kInput);
    clk = nl.add_port("clk", liberty::PinDir::kInput);
    out = nl.add_port("out", liberty::PinDir::kOutput);

    const NetId n_in = nl.add_net("n_in");
    nl.connect(n_in, nl.port(in).pin);
    nl.connect(n_in, nl.cell_pin(a, 0));
    const NetId n_a = nl.add_net("n_a");
    nl.connect(n_a, nl.cell_output_pin(a));
    nl.connect(n_a, nl.cell_pin(b, 0));
    const NetId n_b = nl.add_net("n_b");
    nl.connect(n_b, nl.cell_output_pin(b));
    nl.connect(n_b, nl.cell_pin(d, 0));
    const NetId n_clk = nl.add_net("clk");
    nl.connect(n_clk, nl.port(clk).pin);
    nl.connect(n_clk, nl.cell_pin(d, 1));
    nl.mark_clock_net(n_clk);
    const NetId n_q = nl.add_net("n_q");
    nl.connect(n_q, nl.cell_output_pin(d));
    nl.connect(n_q, nl.port(out).pin);

    options.clock_period_ps = period;
  }

  /// Ideal-wire delay through one INV_X1 driving `load_ff`.
  static double inv_delay(double load_ff) {
    const auto& cell = lib().cell(*lib().find("INV_X1"));
    return cell.intrinsic_ps + cell.drive_res_kohm * load_ff;
  }

  Netlist nl;
  StaOptions options;
  CellId a, b, d;
  PortId in, clk, out;
};

TEST(Sta, ChainArrivalMatchesHandComputation) {
  Chain chain(1000.0);
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());

  const double inv_cap = lib().cell(*lib().find("INV_X1")).pins[0].cap_ff;
  const double dff_d_cap = lib().cell(*lib().find("DFF_X1")).pins[0].cap_ff;
  const double d_a = Chain::inv_delay(inv_cap);    // a drives b
  const double d_b = Chain::inv_delay(dff_d_cap);  // b drives DFF.D

  const auto d_pin = chain.nl.cell_pin(chain.d, 0);
  EXPECT_NEAR(sta.arrival_ps(d_pin), d_a + d_b, 1e-9);
}

TEST(Sta, SlackAgainstSetup) {
  Chain chain(1000.0);
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());
  const auto& dff = lib().cell(*lib().find("DFF_X1"));
  const auto d_pin = chain.nl.cell_pin(chain.d, 0);
  EXPECT_NEAR(sta.slack_ps(d_pin),
              1000.0 - dff.setup_ps - sta.arrival_ps(d_pin), 1e-9);
  EXPECT_DOUBLE_EQ(sta.wns_ps(), 0.0);  // generous period, no violation
  EXPECT_DOUBLE_EQ(sta.tns_ns(), 0.0);
}

TEST(Sta, TightClockCreatesNegativeSlack) {
  Chain chain(20.0);  // far below two INV delays + setup
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());
  EXPECT_LT(sta.wns_ps(), 0.0);
  EXPECT_LT(sta.tns_ns(), 0.0);
  // TNS aggregates the two violating endpoints (D pin and output port).
  EXPECT_LE(sta.tns_ns() * 1000.0, sta.wns_ps());
}

TEST(Sta, WorstPathBacktracksThroughChain) {
  Chain chain(20.0);
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());
  const auto paths = sta.worst_paths(10);
  ASSERT_FALSE(paths.empty());
  const TimingPath& worst = paths.front();
  // Path: in-port pin, a.A, a.Y, b.A, b.Y, d.D  (net arcs + cell arcs).
  ASSERT_EQ(worst.pins.size(), 6u);
  EXPECT_EQ(worst.pins.front(), chain.nl.port(chain.in).pin);
  EXPECT_EQ(worst.pins.back(), chain.nl.cell_pin(chain.d, 0));
  // Sorted by ascending slack.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].slack_ps, paths[i].slack_ps);
  }
}

TEST(Sta, MaxPathsRespected) {
  Chain chain(20.0);
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());
  EXPECT_LE(sta.worst_paths(1).size(), 1u);
}

TEST(Sta, PlacementAddsWireDelay) {
  Chain chain(1000.0);
  Sta ideal(chain.nl, chain.options);
  ASSERT_TRUE(ideal.try_run().has_value());

  std::vector<geom::Point> positions(chain.nl.cell_count());
  positions[chain.a.index()] = {0.0, 0.0};
  positions[chain.b.index()] = {200.0, 0.0};  // long wire
  positions[chain.d.index()] = {200.0, 10.0};
  StaOptions placed_options = chain.options;
  placed_options.cell_positions = &positions;
  Sta placed(chain.nl, placed_options);
  ASSERT_TRUE(placed.try_run().has_value());

  const auto d_pin = chain.nl.cell_pin(chain.d, 0);
  EXPECT_GT(placed.arrival_ps(d_pin), ideal.arrival_ps(d_pin));
  EXPECT_GT(placed.net_wirelength_um(netlist::NetId(1)), 0.0);
  EXPECT_DOUBLE_EQ(ideal.net_wirelength_um(netlist::NetId(1)), 0.0);
}

TEST(Sta, ClockArrivalShiftsLaunchAndCapture) {
  Chain chain(100.0);
  // Give the single flop a late clock: capture gets more time, so the D
  // endpoint's required time moves out by the arrival.
  std::vector<double> arrivals(chain.nl.cell_count(), 0.0);
  arrivals[chain.d.index()] = 40.0;
  StaOptions options = chain.options;
  options.clock_arrivals_ps = &arrivals;

  Sta base(chain.nl, chain.options);
  ASSERT_TRUE(base.try_run().has_value());
  Sta skewed(chain.nl, options);
  ASSERT_TRUE(skewed.try_run().has_value());

  const auto d_pin = chain.nl.cell_pin(chain.d, 0);
  EXPECT_NEAR(skewed.slack_ps(d_pin), base.slack_ps(d_pin) + 40.0, 1e-9);
  // The launch edge also moves: Q arrival shifts by +40.
  const auto q_pin = chain.nl.cell_output_pin(chain.d);
  EXPECT_NEAR(skewed.arrival_ps(q_pin), base.arrival_ps(q_pin) + 40.0, 1e-9);
}

TEST(Sta, NetSlackIsDriverSlack) {
  Chain chain(20.0);
  Sta sta(chain.nl, chain.options);
  ASSERT_TRUE(sta.try_run().has_value());
  // Net n_a (id 1) is driven by a's output.
  EXPECT_NEAR(sta.net_slack_ps(netlist::NetId(1)), sta.slack_ps(chain.nl.cell_output_pin(chain.a)),
              1e-12);
  // Clock net slack is +inf.
  EXPECT_TRUE(std::isinf(sta.net_slack_ps(netlist::NetId(3))));
}

TEST(Sta, GeneratedDesignHasFiniteTiming) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 600;
  const Netlist nl = gen::generate(lib(), spec);
  StaOptions options;
  options.clock_period_ps = spec.clock_period_ps;
  Sta sta(nl, options);
  ASSERT_TRUE(sta.try_run().has_value());
  EXPECT_FALSE(sta.endpoints().empty());
  EXPECT_TRUE(std::isfinite(sta.wns_ps()));
  EXPECT_TRUE(std::isfinite(sta.tns_ns()));
  const auto paths = sta.worst_paths(100);
  EXPECT_FALSE(paths.empty());
  for (const auto& path : paths) EXPECT_GE(path.pins.size(), 2u);
}

// --- Activity ---------------------------------------------------------------

TEST(Activity, InverterFlipsProbability) {
  Netlist nl(lib(), "t");
  const auto inv = *lib().find("INV_X1");
  const CellId a = nl.add_cell("a", inv, nl.root_module());
  const PortId in = nl.add_port("in", liberty::PinDir::kInput);
  const PortId out = nl.add_port("out", liberty::PinDir::kOutput);
  const NetId n_in = nl.add_net("n_in");
  nl.connect(n_in, nl.port(in).pin);
  nl.connect(n_in, nl.cell_pin(a, 0));
  const NetId n_out = nl.add_net("n_out");
  nl.connect(n_out, nl.cell_output_pin(a));
  nl.connect(n_out, nl.port(out).pin);

  ActivityOptions options;
  options.input_p = 0.3;
  const auto act = propagate_activity(nl, options);
  EXPECT_NEAR(act[n_out.index()].p_one, 0.7, 1e-12);
  // An inverter preserves transition density.
  EXPECT_NEAR(act[n_out.index()].toggle,
              act[n_in.index()].toggle, 1e-12);
}

TEST(Activity, AndGateProbabilityProduct) {
  Netlist nl(lib(), "t");
  const auto and2 = *lib().find("AND2_X1");
  const CellId g = nl.add_cell("g", and2, nl.root_module());
  const PortId i0 = nl.add_port("i0", liberty::PinDir::kInput);
  const PortId i1 = nl.add_port("i1", liberty::PinDir::kInput);
  const PortId out = nl.add_port("out", liberty::PinDir::kOutput);
  const NetId n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(i0).pin);
  nl.connect(n0, nl.cell_pin(g, 0));
  const NetId n1 = nl.add_net("n1");
  nl.connect(n1, nl.port(i1).pin);
  nl.connect(n1, nl.cell_pin(g, 1));
  const NetId ny = nl.add_net("ny");
  nl.connect(ny, nl.cell_output_pin(g));
  nl.connect(ny, nl.port(out).pin);

  const auto act = propagate_activity(nl, ActivityOptions{});
  EXPECT_NEAR(act[ny.index()].p_one, 0.25, 1e-12);
  // Boolean-difference: D_y = p1*D0 + p0*D1 <= D0 + D1.
  EXPECT_LT(act[ny.index()].toggle,
            act[n0.index()].toggle +
                act[n1.index()].toggle + 1e-12);
}

TEST(Activity, ClockNetTogglesTwicePerCycle) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 300;
  const Netlist nl = gen::generate(lib(), spec);
  const auto act = propagate_activity(nl, ActivityOptions{});
  bool found_clock = false;
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    if (!nl.net(static_cast<NetId>(ni)).is_clock) continue;
    found_clock = true;
    EXPECT_DOUBLE_EQ(act[ni].toggle, 2.0);
  }
  EXPECT_TRUE(found_clock);
}

TEST(Activity, TogglesClampedAndProbabilitiesValid) {
  gen::DesignSpec spec = gen::design_spec("jpeg");
  spec.target_cells = 800;
  const Netlist nl = gen::generate(lib(), spec);
  ActivityOptions options;
  const auto act = propagate_activity(nl, options);
  for (const auto& a : act) {
    EXPECT_GE(a.p_one, 0.0);
    EXPECT_LE(a.p_one, 1.0);
    EXPECT_GE(a.toggle, 0.0);
    EXPECT_LE(a.toggle, options.max_toggle);
  }
}

TEST(Activity, XorChainsIncreaseActivity) {
  // XOR propagates the sum of input densities, so deep XOR trees run hot.
  Netlist nl(lib(), "t");
  const auto xg = *lib().find("XOR2_X1");
  const PortId i0 = nl.add_port("i0", liberty::PinDir::kInput);
  const PortId i1 = nl.add_port("i1", liberty::PinDir::kInput);
  const PortId i2 = nl.add_port("i2", liberty::PinDir::kInput);
  const CellId g0 = nl.add_cell("g0", xg, nl.root_module());
  const CellId g1 = nl.add_cell("g1", xg, nl.root_module());
  const PortId out = nl.add_port("out", liberty::PinDir::kOutput);
  NetId n0 = nl.add_net("n0");
  nl.connect(n0, nl.port(i0).pin);
  nl.connect(n0, nl.cell_pin(g0, 0));
  NetId n1 = nl.add_net("n1");
  nl.connect(n1, nl.port(i1).pin);
  nl.connect(n1, nl.cell_pin(g0, 1));
  NetId ny0 = nl.add_net("ny0");
  nl.connect(ny0, nl.cell_output_pin(g0));
  nl.connect(ny0, nl.cell_pin(g1, 0));
  NetId n2 = nl.add_net("n2");
  nl.connect(n2, nl.port(i2).pin);
  nl.connect(n2, nl.cell_pin(g1, 1));
  NetId ny1 = nl.add_net("ny1");
  nl.connect(ny1, nl.cell_output_pin(g1));
  nl.connect(ny1, nl.port(out).pin);

  const auto act = propagate_activity(nl, ActivityOptions{});
  EXPECT_GT(act[ny1.index()].toggle,
            act[n0.index()].toggle);
}

// --- Power -------------------------------------------------------------------

TEST(Power, LeakageMatchesLibrarySum) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 300;
  const Netlist nl = gen::generate(lib(), spec);
  const auto act = propagate_activity(nl, ActivityOptions{});
  const PowerReport report = compute_power(nl, act, 1000.0, nullptr);
  double leak = 0.0;
  for (std::size_t ci = 0; ci < nl.cell_count(); ++ci) {
    leak += nl.lib_cell_of(static_cast<CellId>(ci)).leakage_uw * 1e-6;
  }
  EXPECT_NEAR(report.leakage_w, leak, 1e-12);
  EXPECT_GT(report.switching_w, 0.0);
  EXPECT_NEAR(report.total_w, report.switching_w + report.leakage_w, 1e-15);
}

TEST(Power, FasterClockBurnsMore) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 300;
  const Netlist nl = gen::generate(lib(), spec);
  const auto act = propagate_activity(nl, ActivityOptions{});
  const PowerReport slow = compute_power(nl, act, 2000.0, nullptr);
  const PowerReport fast = compute_power(nl, act, 500.0, nullptr);
  EXPECT_GT(fast.switching_w, slow.switching_w);
  EXPECT_DOUBLE_EQ(fast.leakage_w, slow.leakage_w);
}

TEST(Power, WirelengthIncreasesSwitching) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 300;
  const Netlist nl = gen::generate(lib(), spec);
  const auto act = propagate_activity(nl, ActivityOptions{});
  const PowerReport ideal = compute_power(nl, act, 1000.0, nullptr);
  std::vector<geom::Point> spread(nl.cell_count());
  for (std::size_t i = 0; i < spread.size(); ++i) {
    spread[i] = {static_cast<double>(i % 100) * 10.0,
                 static_cast<double>(i / 100) * 10.0};
  }
  const PowerReport placed = compute_power(nl, act, 1000.0, &spread);
  EXPECT_GT(placed.switching_w, ideal.switching_w);
  EXPECT_GT(placed.clock_w, 0.0);
}

}  // namespace
}  // namespace ppacd::sta
