/// \file ppa_compare.cpp
/// \brief The paper's headline scenario: compare the default flat flow with
/// the clustering-driven flow on one design, end to end -- placement runtime,
/// HPWL, and post-route rWL/WNS/TNS/power -- for both tool personalities.
///
///   ./ppa_compare [design-name]   (default: jpeg)
#include <cstdio>
#include <string>

#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"

namespace {

using namespace ppacd;

void run_tool(const gen::DesignSpec& spec, flow::Tool tool, const char* label) {
  const liberty::Library lib = liberty::Library::nangate45_like();

  flow::FlowOptions options;
  options.tool = tool;
  options.clock_period_ps = spec.clock_period_ps;
  options.shape_mode = flow::ShapeMode::kVpr;
  options.vpr.min_cluster_instances = 30;

  flow::FlowOptions flat = options;
  flat.strategy = flow::PlaceStrategy::kFlat;
  netlist::Netlist nl_default = gen::generate(lib, spec);
  const flow::FlowResult def = flow::try_run(nl_default, flat).value();
  const flow::PpaOutcome def_ppa =
      flow::try_evaluate_ppa(nl_default, def.place.positions, flat).value();

  netlist::Netlist nl_ours = gen::generate(lib, spec);
  const flow::FlowResult ours = flow::try_run(nl_ours, options).value();
  const flow::PpaOutcome ours_ppa =
      flow::try_evaluate_ppa(nl_ours, ours.place.positions, options).value();

  std::printf("\n--- %s flow ---\n", label);
  std::printf("%-10s %10s %10s %10s %10s %10s %10s\n", "flow", "place(s)",
              "HPWL(um)", "rWL(um)", "WNS(ps)", "TNS(ns)", "power(W)");
  std::printf("%-10s %10.2f %10.0f %10.0f %10.0f %10.2f %10.4f\n", "default",
              def.place.placement_seconds, def.place.hpwl_um, def_ppa.rwl_um,
              def_ppa.wns_ps, def_ppa.tns_ns, def_ppa.power_w);
  std::printf("%-10s %10.2f %10.0f %10.0f %10.0f %10.2f %10.4f\n", "ours",
              ours.place.clustering_seconds + ours.place.placement_seconds,
              ours.place.hpwl_um, ours_ppa.rwl_um, ours_ppa.wns_ps,
              ours_ppa.tns_ns, ours_ppa.power_w);
  const double tns_gain =
      def_ppa.tns_ns != 0.0
          ? 100.0 * (def_ppa.tns_ns - ours_ppa.tns_ns) / def_ppa.tns_ns
          : 0.0;
  std::printf("TNS improvement: %.0f%% (%d clusters, %d V-P&R shaped)\n",
              tns_gain, ours.place.cluster_count, ours.place.shaped_clusters);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "jpeg";
  const gen::DesignSpec spec = gen::design_spec(name);
  std::printf("design: %s (%d target cells, TCP %.2f ns)\n", name.c_str(),
              spec.target_cells, spec.clock_period_ps / 1000.0);
  run_tool(spec, flow::Tool::kOpenRoadLike, "OpenROAD-like");
  run_tool(spec, flow::Tool::kInnovusLike, "Innovus-like (region constraints)");
  return 0;
}
