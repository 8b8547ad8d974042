/// \file bench_model_eval.cpp
/// \brief Section 4.4: GNN model evaluation -- label statistics, MAE and R2
/// on train/validation/test splits, and the V-P&R acceleration factor
/// (paper: MAE 0.105/0.113/0.131, R2 0.788/0.753/0.638, labels in
/// [0.564, 2.96] with mean 1.703 / stddev 0.727, ~30x speedup).
#include <cstdio>

#include "common.hpp"
#include "cluster/fc_multilevel.hpp"
#include "features/features.hpp"
#include "netlist/subnetlist.hpp"
#include "util/timer.hpp"
#include "vpr/vpr.hpp"

int main() {
  using namespace ppacd;
  std::printf("building V-P&R-labelled dataset and training the Fig. 4 model...\n");
  const bench::ModelBundle bundle = bench::build_and_train_model();
  const ml::TrainResult& result = bundle.result;

  util::Table table("Section 4.4: TotalCost model evaluation");
  table.set_header({"Split", "#Samples", "MAE", "R2"});
  auto add = [&table](const char* name, const ml::SplitMetrics& m) {
    table.add_row({name, std::to_string(m.sample_count), bench::fmt(m.mae, 3),
                   bench::fmt(m.r2, 3)});
  };
  add("Train", result.train);
  add("Validation", result.val);
  add("Test", result.test);
  table.print();

  std::printf("\nLabel statistics: range [%.3f, %.3f], mean %.3f, stddev %.3f\n"
              "(paper: range [0.564, 2.96], mean 1.703, stddev 0.727 -- absolute\n"
              "values differ because TotalCost depends on the P&R substrate).\n"
              "Dataset: %zu clusters x %zu shapes = %zu samples; labelling took\n"
              "%.1fs, training %.1fs over %d epochs.\n",
              result.labels.min, result.labels.max, result.labels.mean,
              result.labels.stddev, bundle.dataset.clusters.size(),
              bundle.dataset.shapes.size(), bundle.dataset.sample_count(),
              bundle.dataset_seconds, bundle.training_seconds, result.epochs_run);

  // --- Acceleration factor: exact V-P&R vs ML prediction per cluster --------
  const gen::DesignSpec spec = gen::design_spec("ariane");
  netlist::Netlist nl = bench::make_design(spec);
  cluster::FcOptions fc;
  fc.target_cluster_count = std::max(8, static_cast<int>(nl.cell_count()) / 100);
  const cluster::FcResult fc_result =
      cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
  cluster::ClusteredNetlist clustered = cluster::build_clustered_netlist(
      nl, fc_result.cluster_of_cell, fc_result.cluster_count);

  vpr::VprOptions vpr_options;
  vpr_options.min_cluster_instances = 60;
  util::Timer timer;
  const vpr::ShapeSelectionStats exact =
      vpr::select_cluster_shapes(nl, clustered, vpr_options, nullptr);
  const double exact_seconds = timer.seconds();

  const vpr::ShapeCostPredictor predictor =
      result.model->predictor(features::FeatureOptions{});
  timer.reset();
  const vpr::ShapeSelectionStats ml_stats =
      vpr::select_cluster_shapes(nl, clustered, vpr_options, &predictor);
  const double ml_seconds = timer.seconds();

  const double per_run_s =
      exact.vpr_runs > 0 ? exact_seconds / exact.vpr_runs : 0.0;
  const double ml_per_cluster_s =
      ml_stats.clusters_shaped > 0 ? ml_seconds / ml_stats.clusters_shaped : 0.0;
  std::printf(
      "\nV-P&R acceleration on %s (%d shaped clusters):\n"
      "  exact V-P&R: %.2fs total, %.1f ms per virtual P&R run\n"
      "  ML-accelerated: %.2fs total, %.0f ms per cluster (features + 20\n"
      "  predictions)\n"
      "  measured speedup: %.2fx\n"
      "The paper reports ~30x because each of its OpenROAD runs costs up to\n"
      "3 s; on this substrate a virtual P&R finishes in milliseconds, so the\n"
      "crossover favours exact V-P&R at this design scale. At the paper's\n"
      "per-run cost the same model would save (20 x 3 s) / %.2f s = %.0fx.\n",
      spec.name.c_str(), exact.clusters_shaped, exact_seconds,
      1000.0 * per_run_s, ml_seconds, 1000.0 * ml_per_cluster_s,
      ml_seconds > 0 ? exact_seconds / ml_seconds : 0.0, ml_per_cluster_s,
      ml_per_cluster_s > 0 ? 60.0 / ml_per_cluster_s : 0.0);

  util::CsvWriter csv;
  csv.set_header({"split", "samples", "mae", "r2"});
  csv.add_row({"train", std::to_string(result.train.sample_count),
               bench::fmt(result.train.mae, 4), bench::fmt(result.train.r2, 4)});
  csv.add_row({"val", std::to_string(result.val.sample_count),
               bench::fmt(result.val.mae, 4), bench::fmt(result.val.r2, 4)});
  csv.add_row({"test", std::to_string(result.test.sample_count),
               bench::fmt(result.test.mae, 4), bench::fmt(result.test.r2, 4)});
  bench::write_results(csv, "model_eval");
  return 0;
}
