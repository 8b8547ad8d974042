/// \file bench_scaling.cpp
/// \brief Runtime scaling of the default vs clustering-driven flow across
/// design sizes — the turnaround-time story of the paper's introduction
/// rendered as a curve (not a paper table, but the trend every table rests
/// on: the speedup must grow, or at least hold, with design size).
#include <algorithm>
#include <cstdio>

#include "cluster/fc_multilevel.hpp"
#include "common.hpp"
#include "exec/exec.hpp"
#include "util/timer.hpp"
#include "vpr/vpr.hpp"

namespace {

/// Thread-scaling sweep of the hottest flow stage, V-P&R shape selection
/// (exact evaluation, predictor disabled): same design, same clustering,
/// thread counts 1/2/4/8. Emits bench_results/scaling_threads.csv.
void run_thread_sweep() {
  using namespace ppacd;
  util::Table table("V-P&R shape selection: thread scaling");
  table.set_header({"Threads", "Shape (s)", "Speedup"});
  util::CsvWriter csv;
  csv.set_header({"threads", "shape_s", "speedup"});

  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = static_cast<int>(spec.target_cells * bench::size_scale());
  netlist::Netlist nl = gen::generate(bench::library(), spec);
  cluster::FcOptions fc;
  fc.target_cluster_count = std::max(8, static_cast<int>(nl.cell_count()) / 100);
  const cluster::FcResult fc_result =
      cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);

  vpr::VprOptions vpr_options;
  vpr_options.min_cluster_instances = 60;
  const int saved_threads = exec::thread_count();
  double base_seconds = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    exec::set_thread_count(threads);
    cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
        nl, fc_result.cluster_of_cell, fc_result.cluster_count);
    util::Timer timer;
    vpr::select_cluster_shapes(nl, clustered, vpr_options, nullptr);
    const double seconds = timer.seconds();
    if (threads == 1) base_seconds = seconds;
    const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
    table.add_row({std::to_string(threads), bench::fmt(seconds, 2),
                   bench::fmt(speedup, 2)});
    csv.add_row({std::to_string(threads), bench::fmt(seconds, 3),
                 bench::fmt(speedup, 3)});
  }
  exec::set_thread_count(saved_threads);
  table.print();
  bench::write_results(csv, "scaling_threads");
}

}  // namespace

int main() {
  using namespace ppacd;
  util::Table table("Placement runtime scaling: Default vs Ours");
  table.set_header({"#Cells", "Default (s)", "Ours (s)", "Ratio", "Ours HPWL"});
  util::CsvWriter csv;
  csv.set_header({"cells", "default_s", "ours_s", "ratio", "ours_hpwl_norm"});

  for (const int size : {1000, 2000, 4000, 8000, 16000, 26000}) {
    // Parametric generic design so the instance count tracks the sweep (the
    // named tiled/multicore designs have a module-count floor).
    gen::DesignSpec spec;
    spec.name = "scal" + std::to_string(size);
    spec.seed = 0xc0ffee + static_cast<std::uint64_t>(size);
    spec.topology = gen::Topology::kGeneric;
    spec.hierarchy_depth = 4;
    spec.hierarchy_branching = 3;
    spec.clock_period_ps = 1500.0;
    spec.target_cells = static_cast<int>(size * bench::size_scale());
    flow::FlowOptions options;
    options.clock_period_ps = spec.clock_period_ps;
    options.vpr.min_cluster_instances = 1 << 20;  // isolate placement runtime

    flow::FlowOptions flat = options;
    flat.strategy = flow::PlaceStrategy::kFlat;
    netlist::Netlist nl_default = gen::generate(bench::library(), spec);
    const flow::FlowResult def = flow::try_run(nl_default, flat).value();

    netlist::Netlist nl_ours = gen::generate(bench::library(), spec);
    const flow::FlowResult ours = flow::try_run(nl_ours, options).value();
    const double ours_cpu =
        ours.place.clustering_seconds + ours.place.placement_seconds;
    const double ratio = ours_cpu / def.place.placement_seconds;
    table.add_row({std::to_string(nl_default.cell_count()),
                   bench::fmt(def.place.placement_seconds, 2),
                   bench::fmt(ours_cpu, 2), bench::fmt(ratio, 2),
                   bench::fmt(ours.place.hpwl_um / def.place.hpwl_um, 3)});
    csv.add_row({std::to_string(nl_default.cell_count()),
                 bench::fmt(def.place.placement_seconds, 3),
                 bench::fmt(ours_cpu, 3), bench::fmt(ratio, 3),
                 bench::fmt(ours.place.hpwl_um / def.place.hpwl_um, 4)});
  }
  table.print();
  bench::write_results(csv, "scaling");
  std::printf("\nExpected: the ratio stays well below 1 and does not degrade\n"
              "with size (the paper's motivation: clustering pays off most on\n"
              "the largest designs).\n");

  run_thread_sweep();
  std::printf("\nExpected: near-linear shape-selection speedup up to the\n"
              "machine's core count (clusters and shape candidates are\n"
              "embarrassingly parallel); flat on single-core hosts.\n");
  return 0;
}
