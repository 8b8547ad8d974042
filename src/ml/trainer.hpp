/// \file trainer.hpp
/// \brief Training and evaluation of the TotalCost model (Section 4.4), and
/// the adapter that plugs the trained model into V-P&R shape selection as
/// the "ML-accelerated" path.
#pragma once

#include <memory>

#include "ml/dataset.hpp"
#include "ml/gnn.hpp"
#include "vpr/vpr.hpp"

namespace ppacd::ml {

struct TrainOptions {
  int epochs = 20;
  int batch_size = 16;
  double learning_rate = 1e-3;
  double train_fraction = 0.72;  ///< matches the paper's 22700/31500
  double val_fraction = 0.18;    ///< 5600/31500; the rest is test
  std::uint64_t seed = 5;
};

struct SplitMetrics {
  double mae = 0.0;
  double r2 = 0.0;
  std::size_t sample_count = 0;
};

/// Label statistics (the paper reports range [0.564, 2.96], mean 1.703,
/// stddev 0.727 for its dataset).
struct LabelStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// A trained model plus its feature scaler.
class TrainedModel {
 public:
  /// `label_mean`/`label_std`: the target standardization applied during
  /// training; predictions are mapped back to raw TotalCost units.
  TrainedModel(std::shared_ptr<TotalCostModel> model,
               std::vector<double> feature_mean, std::vector<double> feature_std,
               double label_mean, double label_std);

  /// Predicts TotalCost for one cluster graph at one candidate shape.
  double predict(const features::ClusterGraph& graph,
                 const cluster::ClusterShape& shape) const;

  /// Adapter for vpr::select_cluster_shapes: extracts features from the
  /// sub-netlist and scores every candidate with the model.
  vpr::ShapeCostPredictor predictor(
      const features::FeatureOptions& feature_options) const;

  // Accessors for serialization (ml/serialize.hpp).
  const std::shared_ptr<TotalCostModel>& network() const { return model_; }
  const std::vector<double>& feature_mean() const { return mean_; }
  const std::vector<double>& feature_std() const { return std_; }
  double label_mean() const { return label_mean_; }
  double label_std() const { return label_std_; }

 private:
  Matrix standardized_features(const features::ClusterGraph& graph,
                               const cluster::ClusterShape& shape) const;

  std::shared_ptr<TotalCostModel> model_;
  std::vector<double> mean_;
  std::vector<double> std_;
  double label_mean_ = 0.0;
  double label_std_ = 1.0;
};

struct TrainResult {
  std::shared_ptr<TrainedModel> model;
  SplitMetrics train;
  SplitMetrics val;
  SplitMetrics test;
  LabelStats labels;
  int epochs_run = 0;
};

/// Trains the Fig. 4 model on `dataset` with MSE loss and Adam, splitting by
/// cluster, and evaluates MAE/R2 on all three splits.
TrainResult train_total_cost_model(const Dataset& dataset,
                                   const TrainOptions& options);

}  // namespace ppacd::ml
