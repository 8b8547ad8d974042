/// \file report.hpp
/// \brief Machine-readable per-run report: serializes the flow configuration,
/// per-phase telemetry spans, the counter snapshot, and the placement / PPA
/// outcomes to a single JSON file.
///
/// Schema (see DESIGN.md "Observability" for the field-by-field description):
///   {
///     "schema_version": 1,
///     "design": "...", "flow": "...",
///     "lanes":   exec pool lane count,
///     "options": { tool, cluster_method, shape_mode, ..., fc: {...},
///                  placer: {...}, vpr: {...}, router: {...}, cts: {...} },
///     "phases":  [ {name, seconds, count, attrs} ... ],  // "flow.*" spans
///     "spans":   [ ... full span tree ... ],
///     "metrics": { counters },
///     "checks":  [ {checker, level, checked, violations, messages} ... ],
///     "place":   { hpwl_um, ..._seconds, cluster_count, shaped_clusters },
///     "ppa":     { rwl_um, wns_ps, tns_ns, power_w, ... }   // if provided
///   }
#pragma once

#include <string>

#include "flow/flow.hpp"
#include "telemetry/json.hpp"

namespace ppacd::flow {

struct RunReportInputs {
  std::string design;  ///< design name (free-form)
  std::string flow;    ///< flow label, e.g. "default" or "ours"
  /// All optional; missing pieces are simply omitted from the report.
  const FlowOptions* options = nullptr;
  const PlaceOutcome* place = nullptr;
  const PpaOutcome* ppa = nullptr;
};

/// Human-readable names for the option enums (also used by the report).
const char* to_string(Tool tool);
const char* to_string(ClusterMethod method);
const char* to_string(ShapeMode mode);

/// Builds the run report from the inputs plus the process-wide telemetry
/// state (spans recorded so far, current counter snapshot).
telemetry::Json run_report_json(const RunReportInputs& inputs);

/// Writes run_report_json() to `path` (pretty-printed); false on I/O error.
bool write_run_report(const std::string& path, const RunReportInputs& inputs);

}  // namespace ppacd::flow
