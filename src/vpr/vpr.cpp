#include "vpr/vpr.hpp"

#include <algorithm>
#include "util/assert.hpp"
#include <cmath>
#include <limits>
#include <new>
#include <optional>
#include <sstream>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "place/floorplan.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ppacd::vpr {

std::vector<cluster::ClusterShape> candidate_shapes(const VprOptions& options) {
  std::vector<cluster::ClusterShape> shapes;
  shapes.reserve(options.aspect_ratios.size() * options.utilizations.size());
  for (const double ar : options.aspect_ratios) {
    for (const double util : options.utilizations) {
      cluster::ClusterShape shape;
      shape.aspect_ratio = ar;
      shape.utilization = util;
      shapes.push_back(shape);
    }
  }
  return shapes;
}

namespace {

/// Shared tail of the virtual P&R: place, route, score Eq. 4/5.
ShapeCandidate score_virtual_die(netlist::Netlist& virtual_design,
                                 place::PlaceModel model,
                                 const place::Floorplan& fp,
                                 const cluster::ClusterShape& shape,
                                 const VprOptions& options,
                                 std::vector<geom::Point>& positions_scratch);

/// Evaluates one shape on `scratch`, an existing copy of the sub-netlist.
/// Only port positions change per shape (place_ports_on_boundary rewrites
/// every port), so the same scratch copy serves all candidates — no
/// per-candidate deep copy of the netlist.
ShapeCandidate evaluate_shape_inplace(netlist::Netlist& scratch,
                                      const cluster::ClusterShape& shape,
                                      const VprOptions& options,
                                      std::vector<geom::Point>& positions_scratch) {
  // Virtual die at this shape; IO ports on its boundary (footnote 4).
  place::FloorplanOptions fpo;
  fpo.utilization = shape.utilization;
  fpo.aspect_ratio = shape.aspect_ratio;
  const place::Floorplan fp = place::Floorplan::create(
      scratch.total_cell_area(), scratch.library().row_height_um(), fpo);
  place::place_ports_on_boundary(scratch, fp);
  place::PlaceModel model = place::make_place_model(scratch, fp);
  return score_virtual_die(scratch, std::move(model), fp, shape, options,
                           positions_scratch);
}

}  // namespace

ShapeCandidate evaluate_shape(const netlist::Netlist& subnetlist,
                              const cluster::ClusterShape& shape,
                              const VprOptions& options) {
  netlist::Netlist virtual_design = subnetlist;
  std::vector<geom::Point> positions;
  return evaluate_shape_inplace(virtual_design, shape, options, positions);
}

ShapeCandidate evaluate_l_shape(const netlist::Netlist& subnetlist,
                                const cluster::ClusterShape& shape,
                                double notch_fraction,
                                const VprOptions& options) {
  PPACD_CHECK(notch_fraction > 0.0 && notch_fraction < 0.5,
              "notch fraction " << notch_fraction);
  netlist::Netlist virtual_design = subnetlist;
  // Gross area must leave the usable area intact after the notch.
  place::FloorplanOptions fpo;
  fpo.utilization = shape.utilization * (1.0 - notch_fraction);
  fpo.aspect_ratio = shape.aspect_ratio;
  const place::Floorplan fp = place::Floorplan::create(
      virtual_design.total_cell_area(), virtual_design.library().row_height_um(),
      fpo);
  place::place_ports_on_boundary(virtual_design, fp);
  place::PlaceModel model = place::make_place_model(virtual_design, fp);

  // Notch blockage in the top-right corner, sqrt(f) of each dimension so
  // the notch covers `notch_fraction` of the gross area.
  const double frac = std::sqrt(notch_fraction);
  place::PlaceObject notch;
  notch.blockage = true;
  notch.fixed = true;
  notch.width_um = fp.core.width() * frac;
  notch.height_um = fp.core.height() * frac;
  notch.fixed_position = {fp.core.ux - notch.width_um * 0.5,
                          fp.core.uy - notch.height_um * 0.5};
  model.objects.push_back(notch);

  std::vector<geom::Point> positions;
  return score_virtual_die(virtual_design, std::move(model), fp, shape, options,
                           positions);
}

namespace {

ShapeCandidate score_virtual_die(netlist::Netlist& virtual_design,
                                 place::PlaceModel model,
                                 const place::Floorplan& fp,
                                 const cluster::ClusterShape& shape,
                                 const VprOptions& options,
                                 std::vector<geom::Point>& positions_scratch) {
  ShapeCandidate candidate;
  candidate.shape = shape;

  place::GlobalPlacer placer(model, options.placer);
  const place::PlaceResult placed = placer.run();
  place::cell_positions(virtual_design, placed.placement, positions_scratch);
  const std::vector<geom::Point>& positions = positions_scratch;

  route::GlobalRouter router(virtual_design, positions, fp.core, options.router);
  route::RouteResult routed;
  try {
    routed = router.run();
  } catch (const std::bad_alloc&) {
    // Nested routing failure (e.g. injected alloc): fail this candidate
    // instead of the whole sweep.
    candidate.total_cost = std::numeric_limits<double>::infinity();
    return candidate;
  }

  // Eq. 4: average net HPWL normalized by the virtual die half-perimeter.
  double hpwl_sum = 0.0;
  std::size_t net_count = 0;
  for (std::size_t ni = 0; ni < virtual_design.net_count(); ++ni) {
    const netlist::Net& net = virtual_design.net(static_cast<netlist::NetId>(ni));
    if (net.pins.size() < 2 || net.is_clock) continue;
    geom::BBox box;
    for (const netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = virtual_design.pin(pid);
      box.expand(pin.kind == netlist::PinKind::kTopPort
                     ? virtual_design.port(pin.port).position
                     : positions[pin.cell.index()]);
    }
    hpwl_sum += box.half_perimeter();
    ++net_count;
  }
  const double hpwl_avg =
      net_count > 0 ? hpwl_sum / static_cast<double>(net_count) : 0.0;
  candidate.hpwl_cost = hpwl_avg / (fp.core.width() + fp.core.height());

  // Eq. 5: mean congestion over the top X% GCells.
  candidate.congestion_cost = routed.top_congestion(options.top_percent);

  candidate.total_cost =
      candidate.hpwl_cost + options.delta * candidate.congestion_cost;
  return candidate;
}

}  // namespace

VprResult run_vpr(const netlist::Netlist& subnetlist, const VprOptions& options) {
  VprResult result;
  const auto shapes = candidate_shapes(options);
  result.candidates.assign(shapes.size(), ShapeCandidate{});

  // Parallel across candidates; each lane copies the sub-netlist once and
  // reuses it for every candidate it evaluates (only ports differ per shape).
  // When nested under the cluster-parallel loop in select_cluster_shapes
  // the chunks run inline on the worker, so this costs one copy per cluster.
  struct LaneScratch {
    std::optional<netlist::Netlist> nl;
    std::vector<geom::Point> positions;
  };
  std::vector<LaneScratch> scratch(exec::worker_slots());
  exec::parallel_for(0, shapes.size(), /*grain=*/1, [&](std::size_t i) {
    // Fault site `vpr.shape_eval`, keyed by candidate index: failed
    // candidates stay non-finite and drop out of best-index selection.
    if (const auto kind = fault::trigger("vpr.shape_eval", i)) {
      result.candidates[i].shape = shapes[i];
      switch (*kind) {
        case fault::FaultKind::kAlloc:
          throw std::bad_alloc();
        case fault::FaultKind::kPoison:
          result.candidates[i].total_cost = fault::poison_value();
          return;
        default:  // error / timeout: candidate eval failed
          result.candidates[i].total_cost =
              std::numeric_limits<double>::infinity();
          return;
      }
    }
    LaneScratch& slot = scratch[exec::this_worker_slot()];
    if (!slot.nl.has_value()) slot.nl.emplace(subnetlist);
    result.candidates[i] =
        evaluate_shape_inplace(*slot.nl, shapes[i], options, slot.positions);
  });

  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const ShapeCandidate& candidate = result.candidates[i];
    if (std::isfinite(candidate.total_cost) && candidate.total_cost < best) {
      best = candidate.total_cost;
      result.best_index = i;
    }
  }
  PPACD_COUNT("vpr.shapes.evaluated", shapes.size());
  return result;
}

namespace {

/// Per-cluster outcome collected inside the parallel shaping loop and
/// turned into degradation/error records serially afterwards, so the log
/// order is independent of thread scheduling.
struct ClusterOutcome {
  bool ml_fell_back = false;      ///< predictor failed, exact V-P&R used
  bool shape_defaulted = false;   ///< sweep failed, default shape kept
  fault::FlowError ml_error;
  fault::FlowError shape_error;
};

std::string cluster_detail(cluster::ClusterId ci) {
  std::ostringstream out;
  out << "cluster " << ci;
  return out.str();
}

}  // namespace

ShapeSelectionStats select_cluster_shapes(
    const netlist::Netlist& nl, cluster::ClusteredNetlist& clustered,
    const VprOptions& options, const ShapeCostPredictor* predictor) {
  ShapeSelectionStats stats;
  const auto shapes = candidate_shapes(options);

  // Partition serially (cheap, keeps skip accounting deterministic), then
  // shape eligible clusters in parallel: set_cluster_shape touches only
  // clusters[ci], and each iteration works on its own extracted sub-netlist.
  std::vector<cluster::ClusterId> eligible;
  for (const cluster::ClusterId ci : clustered.cluster_ids()) {
    if (static_cast<int>(clustered.clusters[ci].cells.size()) <=
        options.min_cluster_instances) {
      ++stats.clusters_skipped;
    } else {
      eligible.push_back(ci);
    }
  }
  stats.clusters_shaped = static_cast<int>(eligible.size());

  // Flight recorder: shape-sweep candidate scores. The series is created
  // here (serial); workers emit with key (series, eligible index k,
  // candidate i), which is unique and schedule-independent, so the merged
  // stream is identical at any thread count.
  const bool observing = observe::active();
  const std::int32_t obs_series =
      observing ? observe::recorder().begin_series(observe::Stream::kVprCandidate)
                : -1;

  std::vector<double> runs_per_cluster(eligible.size(), 0.0);
  std::vector<ClusterOutcome> outcomes(eligible.size());
  exec::parallel_for(0, eligible.size(), /*grain=*/1, [&](std::size_t k) {
    const cluster::ClusterId ci = eligible[k];
    ClusterOutcome& outcome = outcomes[k];
    const cluster::Cluster& cluster_ref = clustered.clusters[ci];
    telemetry::TraceSpan cluster_span("vpr.cluster");
    cluster_span.attr("cluster", ci.value());
    cluster_span.attr("cells", cluster_ref.cells.size());
    const netlist::SubNetlist sub = netlist::extract_subnetlist(nl, cluster_ref.cells);

    std::size_t best_index = kInvalidShapeIndex;
    bool need_exact = predictor == nullptr;
    if (predictor != nullptr) {
      // Fault site `ml.predict`, keyed by eligible-cluster index. A failed,
      // throwing, or out-of-distribution prediction falls back to exact
      // V-P&R (the paper's own fallback).
      std::vector<double> predicted;
      bool ml_ok = true;
      if (const auto kind = fault::trigger("ml.predict", k)) {
        ml_ok = false;
        outcome.ml_error = fault::make_error("ml.predict", *kind);
        if (*kind == fault::FaultKind::kPoison) {
          // Poison is delivered through the data path: a prediction of all
          // NaNs that the OOD guard below must catch.
          predicted.assign(shapes.size(), fault::poison_value());
          ml_ok = true;
        }
      } else {
        try {
          predicted = (*predictor)(sub.netlist, shapes);
        } catch (const std::bad_alloc&) {
          ml_ok = false;
          outcome.ml_error =
              fault::make_error("ml.predict", fault::FaultKind::kAlloc);
        } catch (const std::exception& e) {
          ml_ok = false;
          outcome.ml_error.code = "ml-predict-failed";
          outcome.ml_error.site = "ml.predict";
          outcome.ml_error.message = e.what();
        }
      }
      if (ml_ok && predicted.size() != shapes.size()) {
        ml_ok = false;
        outcome.ml_error.code = "ml-predict-ood";
        outcome.ml_error.site = "ml.predict";
        std::ostringstream msg;
        msg << "predictor returned " << predicted.size() << " costs for "
            << shapes.size() << " shapes";
        outcome.ml_error.message = msg.str();
      }
      if (ml_ok && std::any_of(predicted.begin(), predicted.end(),
                               [](double c) { return !std::isfinite(c); })) {
        ml_ok = false;
        if (outcome.ml_error.code.empty()) {
          outcome.ml_error.code = "non-finite-result";
          outcome.ml_error.site = "ml.predict";
          outcome.ml_error.message = "predicted cost is not finite";
        }
      }
      if (ml_ok) {
        best_index = static_cast<std::size_t>(
            std::min_element(predicted.begin(), predicted.end()) -
            predicted.begin());
        PPACD_COUNT("vpr.shapes.ml_predicted", predicted.size());
      } else {
        outcome.ml_fell_back = true;
        need_exact = true;
      }
    }
    if (need_exact) {
      VprResult vpr;
      try {
        vpr = run_vpr(sub.netlist, options);
      } catch (const std::bad_alloc&) {
        // Allocation failure anywhere in this cluster's sweep fails the
        // sweep, not the flow: the cluster keeps the default shape below.
        outcome.shape_error =
            fault::make_error("vpr.shape_eval", fault::FaultKind::kAlloc);
      }
      best_index = vpr.best_index;
      runs_per_cluster[k] = static_cast<double>(vpr.candidates.size());
      if (observing) {
        for (std::size_t i = 0; i < vpr.candidates.size(); ++i) {
          const ShapeCandidate& candidate = vpr.candidates[i];
          observe::recorder().record(
              observe::Stream::kVprCandidate, obs_series,
              static_cast<std::int64_t>(k), static_cast<std::int64_t>(i),
              {candidate.total_cost, candidate.hpwl_cost,
               candidate.congestion_cost, i == best_index ? 1.0 : 0.0});
        }
      }
      if (best_index == kInvalidShapeIndex &&
          outcome.shape_error.code.empty()) {
        outcome.shape_error.code = "vpr-shape-eval-failed";
        outcome.shape_error.site = "vpr.shape_eval";
        outcome.shape_error.message = "no finite-cost shape candidate";
      }
    }
    if (best_index != kInvalidShapeIndex) {
      cluster::set_cluster_shape(clustered, ci, shapes[best_index]);
    } else {
      // Keep the default shape (AR 1.0, utilization 0.90) for this cluster.
      outcome.shape_defaulted = true;
      cluster::set_cluster_shape(clustered, ci, cluster::ClusterShape{});
    }
  });
  // Ordered accumulation and degradation recording: independent of which
  // lane ran which cluster.
  for (const double runs : runs_per_cluster) stats.vpr_runs += runs;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const ClusterOutcome& outcome = outcomes[k];
    if (outcome.ml_fell_back) {
      ++stats.ml_fallbacks;
      fault::record_degradation({"ml.predict", outcome.ml_error.code,
                                 "vpr-exact", cluster_detail(eligible[k])});
    }
    if (outcome.shape_defaulted) {
      ++stats.clusters_defaulted;
      fault::record_degradation({"vpr.shape_eval", outcome.shape_error.code,
                                 "default-shape", cluster_detail(eligible[k])});
    }
  }
  PPACD_COUNT("vpr.clusters.shaped", stats.clusters_shaped);
  PPACD_COUNT("vpr.clusters.skipped", stats.clusters_skipped);
  PPACD_LOG_DEBUG("vpr") << nl.name() << ": shaped " << stats.clusters_shaped
                         << " clusters (" << stats.clusters_skipped
                         << " below threshold)";
  return stats;
}

}  // namespace ppacd::vpr
