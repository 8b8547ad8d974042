#include "flow/report.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"

namespace ppacd::flow {

const char* to_string(Tool tool) {
  switch (tool) {
    case Tool::kOpenRoadLike: return "openroad";
    case Tool::kInnovusLike: return "innovus";
  }
  return "?";
}

const char* to_string(ClusterMethod method) {
  switch (method) {
    case ClusterMethod::kPpaAware: return "ppa_aware";
    case ClusterMethod::kMfc: return "mfc";
    case ClusterMethod::kLeiden: return "leiden";
    case ClusterMethod::kLouvainBlob: return "louvain_blob";
    case ClusterMethod::kBestChoice: return "best_choice";
    case ClusterMethod::kCutOverlay: return "cut_overlay";
  }
  return "?";
}

const char* to_string(ShapeMode mode) {
  switch (mode) {
    case ShapeMode::kUniform: return "uniform";
    case ShapeMode::kRandom: return "random";
    case ShapeMode::kVpr: return "vpr";
    case ShapeMode::kVprMl: return "vpr_ml";
  }
  return "?";
}

namespace {

using telemetry::Json;

Json options_json(const FlowOptions& options) {
  Json out = Json::object();
  out.set("tool", to_string(options.tool));
  out.set("cluster_method", to_string(options.cluster_method));
  out.set("shape_mode", to_string(options.shape_mode));
  out.set("clock_period_ps", options.clock_period_ps);
  out.set("floorplan_utilization", options.floorplan_utilization);
  out.set("io_weight_scale", options.io_weight_scale);
  out.set("top_paths", options.top_paths);
  out.set("detailed_placement", options.detailed_placement);
  out.set("scatter_seed", options.scatter_seed);
  out.set("timing_optimization", options.timing_optimization);
  out.set("check_level", check::to_string(options.check_level));
  out.set("seed", options.seed);

  Json fc = Json::object();
  fc.set("target_cluster_count", options.fc.target_cluster_count);
  fc.set("max_cluster_area_factor", options.fc.max_cluster_area_factor);
  fc.set("alpha", options.fc.alpha);
  fc.set("beta", options.fc.beta);
  fc.set("gamma", options.fc.gamma);
  fc.set("mu", options.fc.mu);
  fc.set("use_grouping", options.fc.use_grouping);
  fc.set("use_timing", options.fc.use_timing);
  fc.set("use_switching", options.fc.use_switching);
  fc.set("max_net_degree", options.fc.max_net_degree);
  fc.set("max_levels", options.fc.max_levels);
  out.set("fc", std::move(fc));

  Json vpr = Json::object();
  vpr.set("min_cluster_instances", options.vpr.min_cluster_instances);
  vpr.set("delta", options.vpr.delta);
  vpr.set("top_percent", options.vpr.top_percent);
  vpr.set("aspect_ratio_count", options.vpr.aspect_ratios.size());
  vpr.set("utilization_count", options.vpr.utilizations.size());
  out.set("vpr", std::move(vpr));

  Json placer = Json::object();
  placer.set("max_iterations", options.placer.max_iterations);
  placer.set("incremental_iterations", options.placer.incremental_iterations);
  placer.set("cg_max_iterations", options.placer.cg_max_iterations);
  placer.set("target_overflow", options.placer.target_overflow);
  placer.set("bin_rows", options.placer.bin_rows);
  placer.set("anchor_base", options.placer.anchor_base);
  placer.set("incremental_anchor", options.placer.incremental_anchor);
  out.set("placer", std::move(placer));

  Json router = Json::object();
  router.set("gcell_um", options.router.gcell_um);
  router.set("h_capacity", options.router.h_capacity);
  router.set("v_capacity", options.router.v_capacity);
  router.set("rrr_rounds", options.router.rrr_rounds);
  router.set("use_steiner_topology", options.router.use_steiner_topology);
  router.set("maze_fallback", options.router.maze_fallback);
  out.set("router", std::move(router));

  Json cts = Json::object();
  cts.set("max_sinks_per_buffer", options.cts.max_sinks_per_buffer);
  cts.set("buffer_cell", options.cts.buffer_cell);
  out.set("cts", std::move(cts));
  return out;
}

/// Aggregates "flow."-prefixed spans by name: total seconds, occurrence
/// count, and the attributes of the last occurrence.
Json phases_json(const std::vector<telemetry::SpanRecord>& spans) {
  struct Phase {
    double seconds = 0.0;
    std::int64_t count = 0;
    Json attrs = Json::object();
    std::size_t order = 0;  ///< first-seen order
  };
  std::map<std::string, Phase> phases;
  std::size_t order = 0;
  for (const telemetry::SpanRecord& span : spans) {
    if (span.name.rfind("flow.", 0) != 0) continue;
    Phase& phase = phases[span.name];
    if (phase.count == 0) phase.order = order++;
    phase.seconds += span.dur_us >= 0.0 ? span.dur_us / 1e6 : 0.0;
    ++phase.count;
    if (!span.attrs.empty()) phase.attrs = telemetry::attrs_json(span.attrs);
  }
  std::vector<const std::pair<const std::string, Phase>*> ordered;
  ordered.reserve(phases.size());
  for (const auto& entry : phases) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->second.order < b->second.order;
            });
  Json out = Json::array();
  for (const auto* entry : ordered) {
    Json phase = Json::object();
    phase.set("name", entry->first);
    phase.set("seconds", entry->second.seconds);
    phase.set("count", entry->second.count);
    if (entry->second.attrs.size() > 0) {
      phase.set("attrs", entry->second.attrs);
    }
    out.push_back(std::move(phase));
  }
  return out;
}

Json place_json(const PlaceOutcome& place) {
  Json out = Json::object();
  out.set("hpwl_um", place.hpwl_um);
  out.set("clustering_seconds", place.clustering_seconds);
  out.set("shaping_seconds", place.shaping_seconds);
  out.set("placement_seconds", place.placement_seconds);
  out.set("cluster_count", place.cluster_count);
  out.set("shaped_clusters", place.shaped_clusters);
  if (place.shard_count > 0) {
    out.set("shard_count", place.shard_count);
    out.set("shard_fallbacks", place.shard_fallbacks);
  }
  return out;
}

Json ppa_json(const PpaOutcome& ppa) {
  Json out = Json::object();
  out.set("rwl_um", ppa.rwl_um);
  out.set("wns_ps", ppa.wns_ps);
  out.set("tns_ns", ppa.tns_ns);
  out.set("power_w", ppa.power_w);
  out.set("clock_skew_ps", ppa.clock_skew_ps);
  out.set("route_overflow_edges", ppa.route_overflow_edges);
  return out;
}

}  // namespace

telemetry::Json run_report_json(const RunReportInputs& inputs) {
  Json out = Json::object();
  out.set("schema_version", 1);
  out.set("design", inputs.design);
  out.set("flow", inputs.flow);
  out.set("lanes", exec::thread_count());
  if (inputs.options != nullptr) {
    out.set("options", options_json(*inputs.options));
  }
  const std::vector<telemetry::SpanRecord> spans = telemetry::span_snapshot();
  out.set("phases", phases_json(spans));
  out.set("spans", telemetry::spans_json());
  out.set("metrics", telemetry::metrics().to_json());
  out.set("checks", check::log_json());
  out.set("errors", fault::errors_json());
  out.set("degradations", fault::degradations_json());
  if (inputs.place != nullptr) out.set("place", place_json(*inputs.place));
  if (inputs.ppa != nullptr) out.set("ppa", ppa_json(*inputs.ppa));
  // Flight-recorder event stream (folded in only when the recorder captured
  // anything, so reports stay unchanged for observe-off runs).
  if (observe::active()) {
    out.set("observe", observe::recorder().to_json(inputs.design));
  }
  return out;
}

bool write_run_report(const std::string& path, const RunReportInputs& inputs) {
  std::ofstream out(path);
  if (!out) return false;
  out << run_report_json(inputs).dump(2) << '\n';
  return static_cast<bool>(out);
}

}  // namespace ppacd::flow
