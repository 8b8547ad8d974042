/// \file bench_table6.cpp
/// \brief Table 6: cluster-shape ablation with the Innovus-like flow --
/// Random vs Uniform (util 0.9, AR 1.0) vs ML-accelerated V-P&R, on
/// ariane / jpeg / MegaBoom. rWL normalized to the Uniform row per design,
/// as in the paper.
#include <cstdio>

#include "common.hpp"
#include "features/features.hpp"

int main() {
  using namespace ppacd;
  std::printf("training the TotalCost model (one-time cost the ML path amortizes)...\n");
  const bench::ModelBundle bundle = bench::build_and_train_model();
  std::printf("dataset %.1fs (%zu clusters), training %.1fs, test MAE %.3f\n\n",
              bundle.dataset_seconds, bundle.dataset.clusters.size(),
              bundle.training_seconds, bundle.result.test.mae);
  const vpr::ShapeCostPredictor predictor =
      bundle.result.model->predictor(features::FeatureOptions{});

  util::Table table("Table 6: Evaluation of the ML-based V-P&R framework");
  table.set_header({"Design", "Shape", "rWL", "WNS", "TNS", "Power"});
  util::CsvWriter csv;
  csv.set_header({"design", "shape", "rwl_norm", "wns_ps", "tns_ns", "power_w"});

  for (const char* name : {"ariane", "jpeg", "MegaBoom"}) {
    const gen::DesignSpec spec = gen::design_spec(name);
    flow::FlowOptions base = bench::design_flow_options(spec);
    base.tool = flow::Tool::kInnovusLike;
    // Shape leverage needs macro-scale clusters; this ablation runs in the
    // paper's coarse-cluster regime (clusters of ~100+ instances, V-P&R on
    // the large ones, fences held through most of the incremental pass).
    base.fc.target_cluster_count = 0;  // set per design below
    base.fc.max_cluster_area_factor = 3.0;
    base.vpr.min_cluster_instances =
        std::max(30, static_cast<int>(100 * bench::size_scale()));
    base.placer.region_release_fraction = 0.75;

    struct Variant {
      const char* label;
      flow::ShapeMode mode;
    };
    const Variant variants[] = {
        {"Random", flow::ShapeMode::kRandom},
        {"Uniform", flow::ShapeMode::kUniform},
        {"V-P&R_ML", flow::ShapeMode::kVprMl},
    };

    double uniform_rwl = 0.0;
    std::vector<std::pair<const char*, flow::PpaOutcome>> rows;
    for (const Variant& variant : variants) {
      netlist::Netlist nl = bench::make_design(spec);
      flow::FlowOptions options = base;
      options.fc.target_cluster_count =
          std::max(8, static_cast<int>(nl.cell_count()) / 120);
      options.shape_mode = variant.mode;
      options.ml_predictor = &predictor;
      const flow::FlowResult run = flow::try_run(nl, options).value();
      const flow::PpaOutcome ppa =
          flow::try_evaluate_ppa(nl, run.place.positions, options).value();
      if (variant.mode == flow::ShapeMode::kUniform) uniform_rwl = ppa.rwl_um;
      rows.emplace_back(variant.label, ppa);
    }
    for (const auto& [label, ppa] : rows) {
      const double rwl_norm = ppa.rwl_um / uniform_rwl;
      table.add_row({spec.name, label, bench::fmt(rwl_norm, 3),
                     bench::fmt(ppa.wns_ps, 0), bench::fmt(ppa.tns_ns, 2),
                     bench::fmt(ppa.power_w, 4)});
      csv.add_row({spec.name, label, bench::fmt(rwl_norm, 4),
                   bench::fmt(ppa.wns_ps, 1), bench::fmt(ppa.tns_ns, 3),
                   bench::fmt(ppa.power_w, 6)});
    }
  }
  table.print();
  bench::write_results(csv, "table6");
  std::printf("\nrWL normalized to the Uniform assignment per design. Expected\n"
              "shape (paper): V-P&R_ML beats both Random and Uniform on WNS/TNS\n"
              "with equal-or-better rWL and power.\n");
  return 0;
}
