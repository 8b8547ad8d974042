#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "flow/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/string_utils.hpp"
#include "util/timer.hpp"

namespace ppacd::bench {

double size_scale() {
  static const double scale = [] {
    const char* env = std::getenv("PPACD_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::atof(env);
    return value > 0.0 ? value : 1.0;
  }();
  return scale;
}

const liberty::Library& library() {
  static const liberty::Library lib = liberty::Library::nangate45_like();
  return lib;
}

netlist::Netlist make_design(const gen::DesignSpec& spec) {
  gen::DesignSpec scaled = spec;
  scaled.target_cells =
      std::max(200, static_cast<int>(spec.target_cells * size_scale()));
  return gen::generate(library(), scaled);
}

flow::FlowOptions design_flow_options(const gen::DesignSpec& spec) {
  flow::FlowOptions options;
  options.clock_period_ps = spec.clock_period_ps;
  // Footnote 3 uses 200 instances on million-cell designs; with our ~20-100x
  // smaller designs and cells/100 coarsening targets, 30 instances puts a
  // comparable fraction of clusters above the threshold.
  options.vpr.min_cluster_instances =
      std::max(10, static_cast<int>(30 * size_scale()));
  return options;
}

std::string fmt(double value, int decimals) {
  return util::format_double(value, decimals);
}

void write_results(const util::CsvWriter& csv, const std::string& name) {
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/" + name + ".csv";
  if (csv.write(path)) {
    std::printf("results written to %s\n", path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", path.c_str());
  }
  // Telemetry artifacts for the whole bench run so far: a run report (spans,
  // phases, counters) labelled with the table name, and a Chrome trace next
  // to the table. Best-effort -- tables stay valid even if these fail.
  flow::RunReportInputs report;
  report.design = name;
  report.flow = "bench";
  flow::write_run_report("bench_results/" + name + ".report.json", report);
  telemetry::write_chrome_trace("bench_results/" + name + ".trace.json");
}

ModelBundle build_and_train_model() {
  ModelBundle bundle;

  {
    util::ScopedTimer timer(bundle.dataset_seconds);
    std::vector<netlist::Netlist> designs;
    std::vector<const netlist::Netlist*> design_ptrs;
    for (const gen::DesignSpec& spec : gen::small_design_specs()) {
      designs.push_back(make_design(spec));
    }
    for (const netlist::Netlist& nl : designs) design_ptrs.push_back(&nl);

    ml::DatasetOptions dataset_options;
    dataset_options.min_cluster_size = 25;
    dataset_options.max_cluster_size = 250;
    dataset_options.max_clusters_per_design =
        std::max(10, static_cast<int>(80 * size_scale()));
    dataset_options.clustering_configs = 8;
    vpr::VprOptions vpr_options;
    bundle.dataset = ml::build_dataset(design_ptrs, dataset_options, vpr_options);
  }

  {
    util::ScopedTimer timer(bundle.training_seconds);
    ml::TrainOptions train_options;
    train_options.epochs = 22;
    train_options.batch_size = 16;
    bundle.result = ml::train_total_cost_model(bundle.dataset, train_options);
  }
  return bundle;
}

}  // namespace ppacd::bench
