/// \file vpr.hpp
/// \brief Virtualized P&R (Section 3.2, Figure 3) and cluster shape
/// selection.
///
/// For a cluster's induced sub-netlist, V-P&R sweeps the paper's 20 shape
/// candidates (aspect ratio in [0.75, 1.75] step 0.25; utilization in
/// [0.75, 0.90] step 0.05), and for each candidate:
///   1. creates a virtual die at that shape and places the sub-netlist's IO
///      ports on its boundary,
///   2. runs (light) global placement and global routing,
///   3. scores Cost_HPWL (Eq. 4) and Cost_Congestion (Eq. 5), combined as
///      TotalCost = Cost_HPWL + delta * Cost_Congestion.
/// The best-TotalCost candidate becomes the cluster's .lef shape.
///
/// An optional predictor callback replaces step 1-3 with a model estimate
/// (the ML acceleration of Section 3.2); see ppacd::ml for the GNN that
/// implements it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cluster/clustered_netlist.hpp"
#include "netlist/netlist.hpp"
#include "netlist/subnetlist.hpp"
#include "place/global_placer.hpp"
#include "route/global_router.hpp"
#include "util/assert.hpp"

namespace ppacd::vpr {

/// Sentinel best_index when no candidate has a finite TotalCost (empty
/// candidate list or every run diverged). Callers must not index with it.
inline constexpr std::size_t kInvalidShapeIndex = static_cast<std::size_t>(-1);

struct VprOptions {
  std::vector<double> aspect_ratios = {0.75, 1.0, 1.25, 1.5, 1.75};
  std::vector<double> utilizations = {0.75, 0.80, 0.85, 0.90};
  double delta = 0.01;         ///< TotalCost congestion weight
  double top_percent = 10.0;   ///< X of Eq. 5
  /// Only clusters with more instances than this get V-P&R (footnote 3;
  /// the paper uses 200 on full-size designs).
  int min_cluster_instances = 200;
  /// Light P&R settings for the virtual die runs.
  place::GlobalPlacerOptions placer = light_placer();
  route::RouteOptions router;

  static place::GlobalPlacerOptions light_placer() {
    place::GlobalPlacerOptions options;
    options.max_iterations = 12;
    options.min_iterations = 3;
    options.cg_max_iterations = 30;
    return options;
  }
};

/// One evaluated shape candidate.
struct ShapeCandidate {
  cluster::ClusterShape shape;
  double hpwl_cost = 0.0;        ///< Eq. 4
  double congestion_cost = 0.0;  ///< Eq. 5
  double total_cost = 0.0;       ///< Eq. 4 + delta * Eq. 5
};

struct VprResult {
  std::vector<ShapeCandidate> candidates;  ///< all evaluated shapes
  /// Index of the lowest finite-TotalCost candidate, or kInvalidShapeIndex.
  std::size_t best_index = kInvalidShapeIndex;

  bool has_best() const { return best_index != kInvalidShapeIndex; }
  const ShapeCandidate& best() const {
    PPACD_CHECK(has_best(), "V-P&R produced no finite-cost candidate");
    return candidates.at(best_index);
  }
};

/// The 20 candidate shapes in sweep order.
std::vector<cluster::ClusterShape> candidate_shapes(const VprOptions& options);

/// Evaluates one (sub-netlist, shape) pair through virtual P&R and returns
/// the candidate record. The sub-netlist is copied internally (ports are
/// re-placed per shape).
ShapeCandidate evaluate_shape(const netlist::Netlist& subnetlist,
                              const cluster::ClusterShape& shape,
                              const VprOptions& options);

/// Full V-P&R sweep over all candidates for one sub-netlist. Candidates
/// whose evaluation fails (injected `vpr.shape_eval` fault or non-finite
/// score) are left at infinite/NaN cost and excluded from best_index.
/// Allocation failure throws std::bad_alloc.
VprResult run_vpr(const netlist::Netlist& subnetlist, const VprOptions& options);

/// Paper section 5 future work: L-shaped cluster footprints. Evaluates the
/// sub-netlist on a virtual die whose bounding box is enlarged so that,
/// after carving a rectangular notch of `notch_fraction` of the gross area
/// out of the top-right corner (modeled as a placement blockage), the
/// usable area still meets the candidate utilization. Costs are Eq. 4/5 on
/// the gross die.
ShapeCandidate evaluate_l_shape(const netlist::Netlist& subnetlist,
                                const cluster::ClusterShape& shape,
                                double notch_fraction,
                                const VprOptions& options);

/// Predictor signature for ML acceleration: returns the predicted TotalCost
/// of every candidate shape for the given sub-netlist.
using ShapeCostPredictor = std::function<std::vector<double>(
    const netlist::Netlist& subnetlist,
    const std::vector<cluster::ClusterShape>& candidates)>;

/// Statistics from shape selection over a clustered netlist.
struct ShapeSelectionStats {
  int clusters_shaped = 0;    ///< clusters above the instance threshold
  int clusters_skipped = 0;
  double vpr_runs = 0;        ///< virtual P&R executions performed
  /// Clusters where the ML predictor failed (or returned an
  /// out-of-distribution result) and exact V-P&R was used instead.
  int ml_fallbacks = 0;
  /// Clusters whose shape sweep produced no finite candidate and that kept
  /// the default shape (AR 1.0, utilization 0.90).
  int clusters_defaulted = 0;
};

/// Assigns shapes to every qualifying cluster of `clustered` (Alg. 1
/// line 12-13): with `predictor` null, exact V-P&R; otherwise the predictor
/// picks the best candidate (ML-accelerated V-P&R). Skipped clusters keep
/// their default shape.
///
/// Degradation, always on: a predictor that throws, times out, or returns
/// an out-of-distribution result (wrong count / non-finite costs) falls
/// back to exact V-P&R; a sweep with no finite candidate, or one that runs
/// out of memory, keeps the default shape. Each fallback is recorded via
/// fault::record_degradation.
ShapeSelectionStats select_cluster_shapes(
    const netlist::Netlist& netlist, cluster::ClusteredNetlist& clustered,
    const VprOptions& options, const ShapeCostPredictor* predictor);

}  // namespace ppacd::vpr
