/// \file bench_table2.cpp
/// \brief Table 2: post-place HPWL and CPU, [9] (blob placement) and Ours,
/// both normalized to the default flow.
///
/// CPU follows the paper's accounting: cumulative clustering + seeded
/// placement runtime, divided by the default flow's placement runtime.
/// Shape-selection (V-P&R) time is reported separately since the paper's
/// runtime comparison covers clustering and placement. The paper lists NA
/// for [9] on MegaBoom/MemPool Group because Louvain's runtime exploded at
/// millions of cells; our scaled designs stay tractable so measured values
/// are printed, flagged with '*'.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace {

/// One timed flow phase, reported in the same ppacd-bench-perf-v1 schema as
/// bench_microkernels so tools/metric_diff.py can compare runs of either.
struct PerfEntry {
  std::string name;
  double ns_per_op = 0.0;
};

bool write_perf_json(const std::string& path,
                     const std::vector<PerfEntry>& entries) {
  using ppacd::telemetry::Json;
  Json report = Json::object();
  report.set("schema", "ppacd-bench-perf-v1");
  report.set("binary", "bench_table2");
  Json list = Json::array();
  for (const PerfEntry& e : entries) {
    Json entry = Json::object();
    entry.set("name", e.name);
    entry.set("ns_per_op", e.ns_per_op);
    entry.set("allocs_per_op", 0.0);  // flow timers do not count allocations
    entry.set("bytes_per_op", 0.0);
    entry.set("iterations", static_cast<std::int64_t>(1));
    list.push_back(std::move(entry));
  }
  report.set("kernels", std::move(list));
  std::ofstream out(path);
  if (!out) return false;
  out << report.dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppacd;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  std::vector<PerfEntry> perf;
  util::Table table("Table 2: Post-place results with the OpenROAD-like flow "
                    "(normalized to Default)");
  table.set_header({"Design", "[9] HPWL", "[9] CPU", "Ours HPWL", "Ours CPU"});
  util::CsvWriter csv;
  csv.set_header({"design", "default_hpwl_um", "default_cpu_s", "blob_hpwl_norm",
                  "blob_cpu_norm", "ours_hpwl_norm", "ours_cpu_norm",
                  "ours_vpr_s", "ours_clusters"});

  double blob_cpu_sum = 0.0;
  double ours_cpu_sum = 0.0;
  int designs = 0;
  for (const gen::DesignSpec& spec : gen::all_design_specs()) {
    const flow::FlowOptions base = bench::design_flow_options(spec);

    flow::FlowOptions flat = base;
    flat.strategy = flow::PlaceStrategy::kFlat;
    netlist::Netlist nl_default = bench::make_design(spec);
    const flow::FlowResult def = flow::try_run(nl_default, flat).value();

    // Blob placement [9]: Louvain communities, uniform shapes, seeded flow.
    netlist::Netlist nl_blob = bench::make_design(spec);
    flow::FlowOptions blob_options = base;
    blob_options.cluster_method = flow::ClusterMethod::kLouvainBlob;
    blob_options.shape_mode = flow::ShapeMode::kUniform;
    const flow::FlowResult blob = flow::try_run(nl_blob, blob_options).value();

    // Ours: PPA-aware clustering + V-P&R cluster shapes.
    netlist::Netlist nl_ours = bench::make_design(spec);
    flow::FlowOptions ours_options = base;
    ours_options.shape_mode = flow::ShapeMode::kVpr;
    const flow::FlowResult ours = flow::try_run(nl_ours, ours_options).value();

    const double def_cpu = def.place.placement_seconds;
    auto cpu_of = [](const flow::FlowResult& r) {
      return r.place.clustering_seconds + r.place.placement_seconds;
    };
    const bool large = spec.target_cells > 15000;
    const double blob_hpwl = blob.place.hpwl_um / def.place.hpwl_um;
    const double blob_cpu = cpu_of(blob) / def_cpu;
    const double ours_hpwl = ours.place.hpwl_um / def.place.hpwl_um;
    const double ours_cpu = cpu_of(ours) / def_cpu;
    blob_cpu_sum += blob_cpu;
    ours_cpu_sum += ours_cpu;
    ++designs;

    table.add_row({spec.name,
                   bench::fmt(blob_hpwl, 3) + (large ? "*" : ""),
                   bench::fmt(blob_cpu, 3) + (large ? "*" : ""),
                   bench::fmt(ours_hpwl, 3), bench::fmt(ours_cpu, 3)});
    csv.add_row({spec.name, bench::fmt(def.place.hpwl_um, 1),
                 bench::fmt(def_cpu, 4), bench::fmt(blob_hpwl, 4),
                 bench::fmt(blob_cpu, 4), bench::fmt(ours_hpwl, 4),
                 bench::fmt(ours_cpu, 4), bench::fmt(ours.place.shaping_seconds, 3),
                 std::to_string(ours.place.cluster_count)});
    perf.push_back({"table2/" + std::string(spec.name) + "/default_place",
                    def_cpu * 1e9});
    perf.push_back({"table2/" + std::string(spec.name) + "/blob_cluster_place",
                    cpu_of(blob) * 1e9});
    perf.push_back({"table2/" + std::string(spec.name) + "/ours_cluster_place",
                    cpu_of(ours) * 1e9});
  }
  table.print();
  bench::write_results(csv, "table2");
  std::printf("\n* paper reports NA for [9] on these designs (Louvain runtime\n"
              "  blow-up at full scale); scaled designs stay tractable here.\n"
              "Average CPU vs default: [9] %.2f, Ours %.2f (paper: ours ~0.64,\n"
              "i.e. 36%% average global-placement runtime improvement).\n",
              blob_cpu_sum / designs, ours_cpu_sum / designs);
  if (!json_path.empty()) {
    if (!write_perf_json(json_path, perf)) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf report written to %s\n", json_path.c_str());
  }
  return 0;
}
