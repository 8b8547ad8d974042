/// \file flow.hpp
/// \brief Algorithm 1 as one pipeline, its baselines, and post-route PPA
/// evaluation.
///
/// try_run runs the stages in order:
///   1. cluster and shape: PPA-info extraction, hierarchy grouping (Alg. 2),
///      enhanced FC clustering (Eq. 2/3) and cluster shaping (V-P&R / ML /
///      random / uniform); the `cluster_method` knob swaps in the Table-5
///      baselines (Leiden, plain multilevel FC) and the blob-placement
///      comparator [9] (Louvain + seeded placement);
///   2. seed placement of the clustered netlist;
///   3. placement: one solve chosen by `strategy` — flat global placement
///      (the "Default" rows, which skip stages 1 and 2), seeded incremental
///      flat placement (the paper's approach), or region-sharded seeded
///      placement — then the shared legalization, optional detailed
///      placement and placement check;
///   4. optional timing optimization.
///
/// Tool personalities (Alg. 1 lines 15-25): the OpenROAD-like flow scales IO
/// net weights by 4 on the clustered netlist and runs incremental placement
/// from cluster centers; the Innovus-like flow instead adds region (fence)
/// constraints for V-P&R-shaped clusters during the incremental placement.
///
/// try_evaluate_ppa routes the design, synthesizes the clock tree, and
/// reports rWL / WNS / TNS / Power exactly as Tables 3-6 record them.
///
/// Fallbacks, always on, each recorded as a fault::Degradation: ML predictor
/// failure -> exact V-P&R; a shape sweep with no finite candidate -> the
/// default shape; placer failure -> early stop with the best placement so
/// far; shard failure -> the shard's seed; route failure -> two serial
/// retries, then partial routes; STA failure -> HPWL-only cost. An
/// allocation failure no fallback absorbs becomes a FlowError once, at the
/// two entry points below.
#pragma once

#include <cstdint>
#include <vector>

#include "check/check.hpp"
#include "cluster/fc_multilevel.hpp"
#include "cts/cts.hpp"
#include "fault/expected.hpp"
#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"
#include "place/global_placer.hpp"
#include "place/sharded.hpp"
#include "route/global_router.hpp"
#include "vpr/vpr.hpp"

namespace ppacd::flow {

enum class Tool { kOpenRoadLike, kInnovusLike };

enum class ClusterMethod {
  kPpaAware,     ///< ours: hierarchy grouping + timing + switching (Sec. 3.1)
  kMfc,          ///< TritonPart's plain multilevel FC (Table 5 "MFC")
  kLeiden,       ///< Leiden communities as clusters (Table 5 "Leiden")
  kLouvainBlob,  ///< blob placement [9] (Table 2 comparator)
  kBestChoice,   ///< Best-Choice [1] (extra related-work baseline)
  kCutOverlay,   ///< cut-overlay [6]: FC solutions combined by intersection
};

/// The placement stage of try_run. kSharded partitions the seed-placed
/// clusters onto floorplan regions (place::partition_regions), places each
/// region as an independent sub-problem with boundary pins fixed at the
/// region crossings, and stitches the shards with a short bounded
/// incremental pass (place::place_sharded; DESIGN.md §16). It is
/// bit-identical at any thread count for a fixed shard count.
enum class PlaceStrategy {
  kFlat,     ///< flat global placement, no clustering (the "Default" flow)
  kSeeded,   ///< incremental flat placement from the cluster seed (Alg. 1)
  kSharded,  ///< region-sharded placement from the cluster seed
};

enum class ShapeMode {
  kUniform,  ///< every cluster at utilization 0.9, AR 1.0 (Table 6 "Uniform")
  kRandom,   ///< random candidate shapes (Table 6 "Random")
  kVpr,      ///< exact virtualized P&R (Fig. 3)
  kVprMl,    ///< ML-accelerated V-P&R (needs ml_predictor)
};

struct FlowOptions {
  PlaceStrategy strategy = PlaceStrategy::kSeeded;
  Tool tool = Tool::kOpenRoadLike;
  ClusterMethod cluster_method = ClusterMethod::kPpaAware;
  ShapeMode shape_mode = ShapeMode::kVpr;
  /// Predictor for ShapeMode::kVprMl (borrowed; must outlive the call).
  const vpr::ShapeCostPredictor* ml_predictor = nullptr;

  double clock_period_ps = 1000.0;
  double floorplan_utilization = 0.65;
  double io_weight_scale = 4.0;  ///< Alg. 1 line 22 (OpenROAD-like only)
  std::size_t top_paths = 100000;  ///< |P|

  cluster::FcOptions fc;
  vpr::VprOptions vpr;
  place::GlobalPlacerOptions placer;
  route::RouteOptions router;
  cts::CtsOptions cts;
  /// Run window-reordering detailed placement after legalization (applies
  /// to every strategy; off by default so the reproduced tables isolate the
  /// paper's contribution).
  bool detailed_placement = false;
  /// Scatter seeded cells inside their cluster's placed footprint instead
  /// of stacking them at the cluster center (Alg. 1's literal step). On by
  /// default; the ablation bench quantifies the difference.
  bool scatter_seed = true;
  /// Post-placement timing optimization (high-fanout buffering + critical
  /// gate sizing, i.e. repair_design/repair_timing). Mutates the netlist
  /// and re-legalizes. Off by default so the reproduced tables isolate the
  /// paper's contribution.
  bool timing_optimization = false;
  /// Invariant checking between phases (src/check): kOff (default) skips
  /// all validators, kCheap runs the linear cross-reference scans, kFull
  /// adds overlap sweeps and hypergraph reconstruction. Violations are
  /// logged, counted in telemetry (`check.<checker>.violations`), and
  /// serialized into the JSON run report's "checks" section.
  check::CheckLevel check_level = check::CheckLevel::kOff;
  /// Region-sharded seeded placement (PlaceStrategy::kSharded only): shard
  /// count and per-shard / stitch iteration budgets.
  place::ShardedOptions sharding;
  std::uint64_t seed = 3;
};

/// Placement-stage outcome (Table 2 columns).
struct PlaceOutcome {
  std::vector<geom::Point> positions;  ///< legalized cell centers
  double hpwl_um = 0.0;                ///< post-place netlist HPWL
  double clustering_seconds = 0.0;     ///< PPA extraction + clustering
  double placement_seconds = 0.0;      ///< seed + incremental (or flat GP)
  double shaping_seconds = 0.0;        ///< V-P&R / ML shape selection
  int cluster_count = 0;               ///< 0 for PlaceStrategy::kFlat
  int shaped_clusters = 0;
  int shard_count = 0;                 ///< 0 unless PlaceStrategy::kSharded
  int shard_fallbacks = 0;             ///< shards that kept their VPR seed
};

/// Post-route PPA (Tables 3-6 columns).
struct PpaOutcome {
  double rwl_um = 0.0;     ///< routed wirelength incl. clock tree
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  double power_w = 0.0;
  double clock_skew_ps = 0.0;
  int route_overflow_edges = 0;
};

struct FlowResult {
  PlaceOutcome place;
  PpaOutcome ppa;  ///< filled by the caller from try_evaluate_ppa
};

/// Runs the placement flow selected by `options` (see the file comment)
/// and places the netlist's ports on the floorplan boundary as a side
/// effect. Subsystem failures (injected through the fault sites or genuine)
/// are absorbed by the always-on fallbacks (file comment), each recorded
/// via fault::record_degradation and surfaced in the JSON run report. An
/// allocation failure no fallback absorbs returns `alloc-failure` at site
/// `flow.run`.
[[nodiscard]] fault::Expected<FlowResult, fault::FlowError> try_run(
    netlist::Netlist& netlist, const FlowOptions& options);

/// Routes, runs CTS, and measures post-route PPA for a placed design. An
/// allocation failure no fallback absorbs returns `alloc-failure` at site
/// `flow.evaluate_ppa`.
[[nodiscard]] fault::Expected<PpaOutcome, fault::FlowError> try_evaluate_ppa(
    const netlist::Netlist& netlist, const std::vector<geom::Point>& positions,
    const FlowOptions& options);

}  // namespace ppacd::flow
