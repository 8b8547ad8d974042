/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the public API: generate a design, run
/// the PPA-aware clustering-driven placement flow, and print the placement
/// and post-route metrics.
///
///   ./quickstart [design-name]   (default: aes)
#include <cstdio>
#include <string>

#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/stats.hpp"

int main(int argc, char** argv) {
  using namespace ppacd;

  // 1. A standard-cell library and a design. Real users would build the
  //    netlist from their own data via netlist::Netlist's construction API;
  //    here we use the built-in synthetic benchmark generator.
  const liberty::Library lib = liberty::Library::nangate45_like();
  const std::string name = argc > 1 ? argv[1] : "aes";
  const gen::DesignSpec spec = gen::design_spec(name);
  netlist::Netlist design = gen::generate(lib, spec);
  std::printf("design %s: %s\n", name.c_str(),
              netlist::to_string(netlist::compute_stats(design)).c_str());

  // 2. Configure the flow: the tool personality, the clock, and the knobs of
  //    the PPA-aware clustering (Eq. 2/3) and V-P&R (Sec. 3.2).
  flow::FlowOptions options;
  options.tool = flow::Tool::kOpenRoadLike;
  options.clock_period_ps = spec.clock_period_ps;
  options.shape_mode = flow::ShapeMode::kVpr;  // exact virtualized P&R
  options.vpr.min_cluster_instances = 30;

  // 3. Run the clustering-driven placement (Algorithm 1)...
  const flow::FlowResult result = flow::try_run(design, options).value();
  std::printf("placed: HPWL %.0f um, %d clusters (%d V-P&R-shaped), "
              "clustering %.2fs + placement %.2fs\n",
              result.place.hpwl_um, result.place.cluster_count,
              result.place.shaped_clusters, result.place.clustering_seconds,
              result.place.placement_seconds);

  // 4. ...and evaluate post-route PPA (global route + CTS + STA + power).
  const flow::PpaOutcome ppa =
      flow::try_evaluate_ppa(design, result.place.positions, options).value();
  std::printf("post-route: rWL %.0f um, WNS %.0f ps, TNS %.2f ns, "
              "power %.4f W, clock skew %.1f ps\n",
              ppa.rwl_um, ppa.wns_ps, ppa.tns_ns, ppa.power_w, ppa.clock_skew_ps);
  return 0;
}
