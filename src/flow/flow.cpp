#include "flow/flow.hpp"

#include <algorithm>
#include <new>
#include <sstream>

#include "flow/report.hpp"

#include "check/cluster_check.hpp"
#include "check/netlist_check.hpp"
#include "check/place_check.hpp"
#include "check/route_check.hpp"
#include "cluster/best_choice.hpp"
#include "cluster/overlay.hpp"
#include "cluster/clustered_netlist.hpp"
#include "cluster/community.hpp"
#include "cluster/graph.hpp"
#include "cluster/ppa_costs.hpp"
#include "fault/fault.hpp"
#include "hier/dendrogram.hpp"
#include "place/floorplan.hpp"
#include "place/detailed.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "opt/buffering.hpp"
#include "opt/sizing.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ppacd::flow {

namespace {

/// Runs one inter-phase validator under a "flow.check" span and funnels the
/// findings into the check log / telemetry. `make_result` is only invoked
/// when checking is enabled, so the validators cost nothing at kOff.
template <typename MakeResult>
void run_check(const FlowOptions& options, MakeResult&& make_result) {
  if (options.check_level == check::CheckLevel::kOff) return;
  telemetry::TraceSpan span("flow.check");
  const check::CheckResult result = make_result(options.check_level);
  span.attr("checker", result.checker);
  span.attr("violations", result.total_violations);
  check::report(result);
}

place::Floorplan make_floorplan(netlist::Netlist& nl, const FlowOptions& options) {
  place::FloorplanOptions fpo;
  fpo.utilization = options.floorplan_utilization;
  const place::Floorplan fp = place::Floorplan::create(
      nl.total_cell_area(), nl.library().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  return fp;
}

/// Clustering per the selected method; fills cluster assignment + count.
struct ClusteringOutcome {
  std::vector<std::int32_t> assignment;
  std::int32_t count = 0;
};

ClusteringOutcome run_clustering(const netlist::Netlist& nl,
                                 const FlowOptions& options) {
  ClusteringOutcome out;
  switch (options.cluster_method) {
    case ClusterMethod::kPpaAware: {
      // Alg. 1 lines 2-9: hierarchy grouping + timing + switching costs.
      std::vector<double> timing_cost;
      std::vector<double> theta;
      hier::HierClusteringResult hier_result;
      {
        telemetry::TraceSpan span("flow.extract");
        sta::StaOptions sta_options;
        sta_options.clock_period_ps = options.clock_period_ps;
        sta::Sta sta(nl, sta_options);
        auto sta_run = sta.try_run();
        if (sta_run.has_value()) {
          timing_cost = cluster::net_timing_costs(
              nl, sta, options.clock_period_ps, options.top_paths);
        } else {
          // Cluster without timing costs (connectivity + switching only).
          fault::record_degradation({"sta.arrival", sta_run.error().code,
                                     "hpwl-only",
                                     "clustering timing costs unavailable"});
        }
        const auto activities =
            sta::propagate_activity(nl, sta::ActivityOptions{});
        theta = cluster::net_switching_activity(nl, activities);

        if (nl.has_hierarchy()) {
          hier_result = hier::hierarchy_clustering(nl);
        }
        span.attr("hier_clusters", hier_result.cluster_count);
      }
      cluster::FcPpaInputs inputs;
      if (!timing_cost.empty()) inputs.net_timing_cost = &timing_cost;
      inputs.net_switching = &theta;
      if (nl.has_hierarchy() && hier_result.cluster_count > 1) {
        inputs.grouping = &hier_result.cluster_of_cell;
      }
      cluster::FcOptions fc = options.fc;
      fc.seed = options.seed;
      const cluster::FcResult result = cluster::fc_multilevel_cluster(nl, inputs, fc);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kMfc: {
      cluster::FcOptions fc = options.fc;
      fc.seed = options.seed;
      fc.use_grouping = false;
      fc.use_timing = false;
      fc.use_switching = false;
      const cluster::FcResult result =
          cluster::fc_multilevel_cluster(nl, cluster::FcPpaInputs{}, fc);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kBestChoice: {
      cluster::BestChoiceOptions bc;
      bc.seed = options.seed;
      const cluster::BestChoiceResult result = cluster::best_choice_cluster(nl, bc);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kCutOverlay: {
      cluster::CutOverlayOptions overlay;
      overlay.seed = options.seed;
      overlay.target_cluster_count = options.fc.target_cluster_count;
      const cluster::CutOverlayResult result = cluster::cut_overlay_cluster(nl, overlay);
      out.assignment = result.cluster_of_cell;
      out.count = result.cluster_count;
      break;
    }
    case ClusterMethod::kLeiden:
    case ClusterMethod::kLouvainBlob: {
      const cluster::Graph graph = cluster::clique_expand(nl);
      cluster::CommunityOptions community_options;
      community_options.seed = options.seed;
      community_options.min_community_size = 8;  // avoid degenerate blobs
      const cluster::CommunityResult result =
          options.cluster_method == ClusterMethod::kLeiden
              ? cluster::leiden(graph, community_options)
              : cluster::louvain(graph, community_options);
      out.assignment = result.community;
      out.count = result.community_count;
      break;
    }
  }
  return out;
}

void apply_shapes(const netlist::Netlist& nl,
                  cluster::ClusteredNetlist& clustered,
                  const FlowOptions& options, PlaceOutcome& outcome) {
  switch (options.shape_mode) {
    case ShapeMode::kUniform:
      return;  // the build-time default is utilization 0.9, AR 1.0
    case ShapeMode::kRandom: {
      util::Rng rng(options.seed ^ 0x5eedu);
      const auto candidates = vpr::candidate_shapes(options.vpr);
      for (const cluster::ClusterId ci : clustered.cluster_ids()) {
        if (static_cast<int>(clustered.clusters[ci].cells.size()) <=
            options.vpr.min_cluster_instances) {
          continue;
        }
        set_cluster_shape(clustered, ci, candidates[rng.index(candidates.size())]);
        ++outcome.shaped_clusters;
      }
      return;
    }
    case ShapeMode::kVpr:
    case ShapeMode::kVprMl: {
      const vpr::ShapeCostPredictor* predictor = nullptr;
      if (options.shape_mode == ShapeMode::kVprMl) {
        predictor = options.ml_predictor;
        if (predictor == nullptr) {
          // A missing predictor is itself an ML failure: fall back to exact
          // V-P&R instead of asserting.
          fault::record_degradation({"ml.predict", "ml-predictor-missing",
                                     "vpr-exact", "predictor not configured"});
        }
      }
      outcome.shaped_clusters =
          vpr::select_cluster_shapes(nl, clustered, options.vpr, predictor)
              .clusters_shaped;
      return;
    }
  }
}

/// Stage 4, optional repair: buffer high-fanout nets, upsize critical drivers,
/// then re-legalize the enlarged netlist (buffers were dropped at group
/// centroids). Updates positions and HPWL in `result`.
void run_timing_optimization(netlist::Netlist& nl, const place::Floorplan& fp,
                             const FlowOptions& options, FlowResult& result) {
  telemetry::TraceSpan span("flow.timing_opt");
  span.anchor();
  opt::BufferingOptions buffering;
  opt::buffer_high_fanout(nl, result.place.positions, buffering);
  opt::SizingOptions sizing;
  sizing.clock_period_ps = options.clock_period_ps;
  opt::resize_critical_cells(nl, result.place.positions, sizing);

  const place::PlaceModel model = place::make_place_model(nl, fp);
  place::Placement placement(model.objects.size());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    placement[i] = result.place.positions[i];
  }
  for (std::size_t i = nl.cell_count(); i < model.objects.size(); ++i) {
    placement[i] = model.objects[i].fixed_position;
  }
  const place::LegalizeResult legal = place::legalize(model, placement);
  result.place.positions = place::cell_positions(nl, legal.placement);
  result.place.hpwl_um = place::netlist_hpwl(nl, result.place.positions);

  // Buffering/sizing rewired nets and re-legalized: re-validate both.
  run_check(options, [&](check::CheckLevel level) {
    return check::check_netlist(nl, level);
  });
  run_check(options, [&](check::CheckLevel level) {
    return check::check_placement(model, legal.placement, level);
  });
}

/// Stage 1 (Alg. 1 lines 2-13): clusters the netlist and shapes the
/// clusters; fills the cluster counts and their timings in `outcome`.
cluster::ClusteredNetlist cluster_and_shape(const netlist::Netlist& nl,
                                            const FlowOptions& options,
                                            PlaceOutcome& outcome) {
  cluster::ClusteredNetlist clustered;
  {
    telemetry::TraceSpan span("flow.cluster");
    span.anchor();
    util::ScopedTimer timer(outcome.clustering_seconds);
    const ClusteringOutcome clustering = run_clustering(nl, options);
    outcome.cluster_count = clustering.count;
    clustered = cluster::build_clustered_netlist(nl, clustering.assignment,
                                                 outcome.cluster_count);
    span.attr("method", to_string(options.cluster_method));
    span.attr("clusters", outcome.cluster_count);
  }
  run_check(options, [&](check::CheckLevel level) {
    return check::check_clustering(nl, clustered, level);
  });

  telemetry::TraceSpan span("flow.shape");
  span.anchor();
  util::ScopedTimer timer(outcome.shaping_seconds);
  apply_shapes(nl, clustered, options, outcome);
  span.attr("mode", to_string(options.shape_mode));
  span.attr("shaped", outcome.shaped_clusters);
  return clustered;
}

/// The start of the seeded placement strategies.
struct ClusterSeed {
  place::Placement clusters;        ///< placed cluster centers
  std::vector<geom::Point> cells;   ///< induced cell positions
};

/// Stage 2 (Alg. 1 lines 15-17): places the clustered netlist and induces
/// the cell positions the flat placement starts from.
ClusterSeed seed_place(const netlist::Netlist& nl,
                       const cluster::ClusteredNetlist& clustered,
                       const place::Floorplan& fp, const FlowOptions& options) {
  telemetry::TraceSpan span("flow.seed_place");
  span.anchor();
  const double io_scale =
      options.tool == Tool::kOpenRoadLike ? options.io_weight_scale : 1.0;
  const place::PlaceModel cluster_model =
      cluster::make_cluster_place_model(clustered, nl, fp, io_scale);
  place::GlobalPlacerOptions seed_options = options.placer;
  seed_options.seed = options.seed;
  // Cluster macros cannot be untangled by cell shifting; use bisection.
  seed_options.spread_mode = place::SpreadMode::kBisection;
  seed_options.trace_iterations = true;
  place::PlaceResult placed =
      place::GlobalPlacer(cluster_model, seed_options).run();
  if (!placed.degrade_code.empty()) {
    fault::record_degradation({"place.solve", placed.degrade_code,
                               "early-stop", "cluster seed placement"});
  }
  span.attr("iterations", placed.iterations);

  ClusterSeed seed;
  seed.clusters = std::move(placed.placement);
  // Place instances within their placed cluster footprints (or exactly at
  // the centers when scatter_seed is off).
  seed.cells = cluster::induce_cell_positions(clustered, nl, seed.clusters,
                                              options.scatter_seed, options.seed);
  return seed;
}

/// The solve of stage 3: places the flat `model` per `options.strategy`. The
/// seeded strategies start from the cluster seed; the Innovus-like tool
/// fences each V-P&R-shaped cluster into its placed footprint (line 18),
/// while the sharded strategy's regions stand in for those fences.
place::PlaceResult solve(const netlist::Netlist& nl, const place::Floorplan& fp,
                         const cluster::ClusteredNetlist& clustered,
                         const ClusterSeed& seed, const FlowOptions& options,
                         place::PlaceModel& model, PlaceOutcome& outcome) {
  place::GlobalPlacerOptions placer = options.placer;
  placer.seed = options.seed;
  placer.trace_iterations = true;
  if (options.strategy == PlaceStrategy::kFlat) {
    place::PlaceResult placed = place::GlobalPlacer(model, placer).run();
    if (!placed.degrade_code.empty()) {
      fault::record_degradation({"place.solve", placed.degrade_code,
                                 "early-stop", "flat global placement"});
    }
    return placed;
  }

  place::Placement seed_flat(model.objects.size());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) seed_flat[i] = seed.cells[i];
  for (std::size_t i = nl.cell_count(); i < model.objects.size(); ++i) {
    seed_flat[i] = model.objects[i].fixed_position;
  }

  if (options.strategy == PlaceStrategy::kSeeded) {
    if (options.tool == Tool::kInnovusLike) {
      for (const cluster::ClusterId ci : clustered.cluster_ids()) {
        const cluster::Cluster& c = clustered.clusters[ci];
        if (static_cast<int>(c.cells.size()) <=
            options.vpr.min_cluster_instances) {
          continue;
        }
        geom::Rect region = cluster_region(clustered, ci, seed.clusters);
        // Clip the fence to the core.
        region = geom::Rect::make(std::max(region.lx, fp.core.lx),
                                  std::max(region.ly, fp.core.ly),
                                  std::min(region.ux, fp.core.ux),
                                  std::min(region.uy, fp.core.uy));
        if (region.width() <= 0.0 || region.height() <= 0.0) continue;
        for (const netlist::CellId cell : c.cells) {
          model.objects[cell.index()].region = region;
        }
      }
    }
    place::PlaceResult placed =
        place::GlobalPlacer(model, placer).run_incremental(seed_flat);
    if (!placed.degrade_code.empty()) {
      fault::record_degradation({"place.solve", placed.degrade_code,
                                 "early-stop", "incremental flat placement"});
    }
    return placed;
  }

  // Each placed cluster footprint is one partitionable group; the region
  // partitioner maps groups onto `options.sharding.shards` floorplan regions.
  std::vector<place::ShardGroup> groups;
  groups.reserve(clustered.cluster_count());
  for (const cluster::ClusterId ci : clustered.cluster_ids()) {
    place::ShardGroup group;
    group.center = seed.clusters[ci.index()];
    group.rect = cluster_region(clustered, ci, seed.clusters);
    group.weight =
        static_cast<std::int64_t>(clustered.clusters[ci].cells.size());
    groups.push_back(group);
  }
  const place::RegionPartition partition =
      place::partition_regions(groups, fp.core, options.sharding.shards);
  outcome.shard_count = partition.shard_count();
  std::vector<std::int32_t> shard_of_object(model.objects.size(), -1);
  for (std::size_t i = 0; i < nl.cell_count(); ++i) {
    const cluster::ClusterId ci =
        clustered.cluster_of_cell[static_cast<netlist::CellId>(i)];
    shard_of_object[i] = partition.shard_of_group[ci.index()];
  }
  place::ShardedPlaceResult sharded =
      place::place_sharded(model, seed_flat, shard_of_object, partition,
                           options.sharding, placer);
  for (const place::ShardStat& stat : sharded.shards) {
    outcome.shard_fallbacks += stat.fell_back ? 1 : 0;
  }
  place::PlaceResult placed;
  placed.overflow = sharded.overflow;
  placed.placement = std::move(sharded.placement);
  return placed;
}

const char* place_span_name(PlaceStrategy strategy) {
  switch (strategy) {
    case PlaceStrategy::kFlat: return "flow.global_place";
    case PlaceStrategy::kSeeded: return "flow.incremental_place";
    case PlaceStrategy::kSharded: return "flow.sharded_place";
  }
  return "flow.place";
}

/// Stage 3, placement (lines 18-20 for the seeded strategies): solves,
/// removes the fences so cells can settle into legal sites anywhere,
/// legalizes, optionally refines and checks. Returns the cell positions.
std::vector<geom::Point> place_cells(const netlist::Netlist& nl,
                                     const place::Floorplan& fp,
                                     const cluster::ClusteredNetlist& clustered,
                                     const ClusterSeed& seed,
                                     const FlowOptions& options,
                                     PlaceOutcome& outcome) {
  telemetry::TraceSpan span(place_span_name(options.strategy));
  span.anchor();
  place::PlaceModel model = place::make_place_model(nl, fp);
  const place::PlaceResult placed =
      solve(nl, fp, clustered, seed, options, model, outcome);

  for (place::PlaceObject& obj : model.objects) obj.region.reset();
  place::LegalizeResult legal = place::legalize(model, placed.placement);
  if (options.detailed_placement) {
    legal.placement =
        place::detailed_place(model, legal.placement, place::DetailedOptions{})
            .placement;
  }
  run_check(options, [&](check::CheckLevel level) {
    return check::check_placement(model, legal.placement, level);
  });
  if (options.strategy == PlaceStrategy::kSharded) {
    span.attr("shards", outcome.shard_count);
    span.attr("fallbacks", outcome.shard_fallbacks);
  } else {
    span.attr("iterations", placed.iterations);
  }
  span.attr("overflow", placed.overflow);
  return place::cell_positions(nl, legal.placement);
}

}  // namespace

fault::Expected<FlowResult, fault::FlowError> try_run(
    netlist::Netlist& nl, const FlowOptions& options) try {
  FlowResult result;
  run_check(options, [&](check::CheckLevel level) {
    return check::check_netlist(nl, level);
  });
  const place::Floorplan fp = make_floorplan(nl, options);

  const bool flat = options.strategy == PlaceStrategy::kFlat;
  cluster::ClusteredNetlist clustered;
  if (!flat) clustered = cluster_and_shape(nl, options, result.place);
  {
    util::ScopedTimer timer(result.place.placement_seconds);
    ClusterSeed seed;
    if (!flat) seed = seed_place(nl, clustered, fp, options);
    result.place.positions =
        place_cells(nl, fp, clustered, seed, options, result.place);
  }

  result.place.hpwl_um = place::netlist_hpwl(nl, result.place.positions);
  if (options.timing_optimization) {
    run_timing_optimization(nl, fp, options, result);
  }
  PPACD_LOG_INFO("flow") << nl.name() << ": " << result.place.cluster_count
                         << " clusters, " << result.place.shard_count
                         << " shards, HPWL " << result.place.hpwl_um;
  return result;
} catch (const std::bad_alloc&) {
  // The one conversion point for an allocation failure no fallback absorbed.
  return fault::Unexpected<fault::FlowError>(
      fault::make_error("flow.run", fault::FaultKind::kAlloc));
}

fault::Expected<PpaOutcome, fault::FlowError> try_evaluate_ppa(
    const netlist::Netlist& nl, const std::vector<geom::Point>& positions,
    const FlowOptions& options) try {
  PpaOutcome out;

  // Routing grid spans the placement bounding box (the floorplan core).
  geom::BBox box;
  for (const geom::Point& p : positions) box.expand(p);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    box.expand(nl.port(static_cast<netlist::PortId>(po)).position);
  }
  route::RouteResult routed;
  {
    telemetry::TraceSpan span("flow.route");
    span.anchor();
    // Top-level evaluation: stream router progress to the flight recorder
    // (nested shape-sweep routers keep the default, silent).
    route::RouteOptions route_options = options.router;
    route_options.observe_stream = true;
    route::GlobalRouter router(nl, positions, box.rect(), route_options);
    routed = router.run();
    if (routed.failed_nets > 0) {
      std::ostringstream detail;
      detail << routed.failed_nets << " nets skipped after retries";
      fault::record_degradation({"route.maze", "route-maze-failed",
                                 "partial-routes", detail.str()});
    }
    span.attr("overflow_edges", routed.overflow_edges);
    span.attr("wirelength_um", routed.wirelength_um);
  }
  run_check(options, [&](check::CheckLevel level) {
    return check::check_routing(nl, positions, box.rect(), routed,
                                options.router, level);
  });
  out.route_overflow_edges = routed.overflow_edges;

  cts::ClockTreeResult tree;
  {
    telemetry::TraceSpan span("flow.cts");
    span.anchor();
    tree = cts::synthesize_clock_tree(nl, positions, options.cts);
    span.attr("buffers", tree.buffer_count);
    span.attr("skew_ps", tree.max_skew_ps);
  }
  out.clock_skew_ps = tree.max_skew_ps;
  out.rwl_um = routed.wirelength_um + tree.wirelength_um;

  telemetry::TraceSpan sta_span("flow.sta");
  sta_span.anchor();
  sta::StaOptions sta_options;
  sta_options.clock_period_ps = options.clock_period_ps;
  sta_options.cell_positions = &positions;
  sta_options.clock_arrivals_ps = &tree.insertion_delay_ps;
  sta_options.observe_stream = true;  // top-level evaluation only
  sta::Sta sta(nl, sta_options);
  auto sta_run = sta.try_run();
  if (sta_run.has_value()) {
    out.wns_ps = sta.wns_ps();
    out.tns_ns = sta.tns_ns();
  } else {
    // HPWL-only cost: timing metrics report 0 (unavailable); power below
    // still comes from activity propagation, which needs no timing graph.
    fault::record_degradation({"sta.arrival", sta_run.error().code,
                               "hpwl-only", "WNS/TNS unavailable"});
    out.wns_ps = 0.0;
    out.tns_ns = 0.0;
  }
  sta_span.attr("wns_ps", out.wns_ps);
  sta_span.attr("tns_ns", out.tns_ns);

  // Power: data nets from HPWL parasitics; the clock from the synthesized
  // tree (its switched capacitance replaces the flat clock net's HPWL cap).
  const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
  const sta::PowerReport base =
      sta::compute_power(nl, activities, options.clock_period_ps, &positions);
  const liberty::Library& lib = nl.library();
  const double clock_toggle = 2.0;
  const double cts_clock_w = 0.5e-3 * lib.vdd() * lib.vdd() * tree.total_cap_ff *
                             clock_toggle / options.clock_period_ps * 1.10;
  double buffer_leakage_w = 0.0;
  if (const auto buf = lib.find(options.cts.buffer_cell)) {
    buffer_leakage_w = tree.buffer_count * lib.cell(*buf).leakage_uw * 1e-6;
  }
  out.power_w = base.total_w - base.clock_w + cts_clock_w + buffer_leakage_w;
  return out;
} catch (const std::bad_alloc&) {
  // As in try_run: the one conversion point of the PPA evaluation.
  return fault::Unexpected<fault::FlowError>(
      fault::make_error("flow.evaluate_ppa", fault::FaultKind::kAlloc));
}

}  // namespace ppacd::flow
