#include <gtest/gtest.h>

#include <sstream>

#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/io.hpp"
#include "netlist/stats.hpp"

namespace ppacd::netlist {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

Netlist sample(int cells = 300) {
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = cells;
  return gen::generate(lib(), spec);
}

TEST(VerilogIo, WriterEmitsModuleStructure) {
  const Netlist nl = sample(100);
  std::ostringstream out;
  write_verilog(nl, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("module aes"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("input clk;"), std::string::npos);
  EXPECT_NE(text.find("DFF_X1"), std::string::npos);
}

TEST(VerilogIo, RoundTripPreservesStructure) {
  const Netlist original = sample(250);
  std::ostringstream out;
  write_verilog(original, out);

  std::istringstream in(out.str());
  const auto restored = try_read_verilog(in, lib());
  ASSERT_TRUE(restored.has_value()) << restored.error().message;
  EXPECT_TRUE(restored.value().validate().empty());

  const NetlistStats a = compute_stats(original);
  const NetlistStats b = compute_stats(restored.value());
  EXPECT_EQ(a.cell_count, b.cell_count);
  EXPECT_EQ(a.net_count, b.net_count);
  EXPECT_EQ(a.port_count, b.port_count);
  EXPECT_EQ(a.register_count, b.register_count);
  EXPECT_EQ(a.pin_count, b.pin_count);
}

TEST(VerilogIo, RoundTripRestoresHierarchy) {
  const Netlist original = sample(250);
  std::ostringstream out;
  write_verilog(original, out);
  std::istringstream in(out.str());
  const auto restored = try_read_verilog(in, lib());
  ASSERT_TRUE(restored.has_value());
  // Same number of modules carrying cells (empty intermediate modules are
  // recreated implicitly by the path decomposition).
  const NetlistStats a = compute_stats(original);
  const NetlistStats b = compute_stats(restored.value());
  EXPECT_EQ(a.max_hierarchy_depth, b.max_hierarchy_depth);
  EXPECT_TRUE(restored.value().has_hierarchy());
}

TEST(VerilogIo, RoundTripRestoresClockNets) {
  const Netlist original = sample(200);
  std::ostringstream out;
  write_verilog(original, out);
  std::istringstream in(out.str());
  const auto restored = try_read_verilog(in, lib());
  ASSERT_TRUE(restored.has_value());
  const Netlist& nl = restored.value();
  std::size_t clock_nets = 0;
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    if (nl.net(static_cast<NetId>(ni)).is_clock) ++clock_nets;
  }
  EXPECT_EQ(clock_nets, 1u);
}

TEST(VerilogIo, ReaderRejectsGarbage) {
  std::istringstream in("this is not verilog");
  const auto restored = try_read_verilog(in, lib());
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.error().code, "io-parse-failed");
  EXPECT_EQ(restored.error().site, "io.read");
  EXPECT_EQ(restored.error().message, "line 1: expected 'module'");
}

TEST(VerilogIo, ReaderRejectsUnknownCell) {
  std::istringstream in(
      "module t (a);\n  input a;\n  BOGUS_X9 g0 (.A(a));\nendmodule\n");
  const auto restored = try_read_verilog(in, lib());
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.error().code, "io-parse-failed");
  EXPECT_EQ(restored.error().message.rfind("line 3: unknown cell", 0), 0u)
      << restored.error().message;
}

TEST(VerilogIo, ReaderRejectsUnknownPin) {
  std::istringstream in(
      "module t (a);\n  input a;\n  INV_X1 g0 (.NOPE(a));\nendmodule\n");
  const auto restored = try_read_verilog(in, lib());
  ASSERT_FALSE(restored.has_value());
  EXPECT_EQ(restored.error().code, "io-parse-failed");
  EXPECT_NE(restored.error().message.find("no pin"), std::string::npos);
}

TEST(PlacementDef, RoundTrip) {
  const Netlist nl = sample(150);
  std::vector<geom::Point> positions(nl.cell_count());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = {static_cast<double>(i) * 1.5 + 0.25,
                    static_cast<double>(i % 7) * 2.8};
  }
  const geom::Rect die = geom::Rect::make(0, 0, 500, 500);
  std::ostringstream out;
  write_placement_def(nl, positions, die, out);

  std::istringstream in(out.str());
  std::vector<geom::Point> restored;
  ParseError error;
  ASSERT_TRUE(read_placement_def(in, nl, &restored, &error))
      << error.message;
  ASSERT_EQ(restored.size(), positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_NEAR(restored[i].x, positions[i].x, 1e-3);  // DBU quantization
    EXPECT_NEAR(restored[i].y, positions[i].y, 1e-3);
  }
}

TEST(PlacementDef, HeaderContainsDieArea) {
  const Netlist nl = sample(50);
  const std::vector<geom::Point> positions(nl.cell_count());
  std::ostringstream out;
  write_placement_def(nl, positions, geom::Rect::make(0, 0, 100, 80), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("DIEAREA ( 0 0 ) ( 100000 80000 )"), std::string::npos);
  EXPECT_NE(text.find("COMPONENTS " + std::to_string(nl.cell_count())),
            std::string::npos);
}

TEST(PlacementDef, UnknownComponentFails) {
  const Netlist nl = sample(50);
  std::istringstream in("- no_such_cell INV_X1 + PLACED ( 10 10 ) N ;\n");
  std::vector<geom::Point> positions;
  ParseError error;
  EXPECT_FALSE(read_placement_def(in, nl, &positions, &error));
  EXPECT_NE(error.message.find("unknown component"), std::string::npos);
}

}  // namespace
}  // namespace ppacd::netlist
