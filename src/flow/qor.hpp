/// \file qor.hpp
/// \brief QoR ledger: schema-versioned quality-of-results records
/// (`ppacd-qor-v1`) combining a flow's final PPA metrics with convergence
/// summaries distilled from the flight-recorder event stream (src/observe).
///
/// The ledger is the quality twin of the ppacd-bench-perf-v1 perf records:
/// `tools/metric_diff.py` compares two of either kind metric-by-metric with
/// per-metric improvement directions and gates regressions in CI
/// (the `qor-gate` job diffs against bench/BENCH_qor_baseline.json).
#pragma once

#include <string>
#include <string_view>

#include "flow/flow.hpp"
#include "telemetry/json.hpp"

namespace ppacd::flow {

/// Builds the `ppacd-qor-v1` document for one flow run:
///   { "schema": "ppacd-qor-v1", "design": ..., "flow": ...,
///     "metrics": { final HPWL / rWL / WNS / TNS / power / overflow ... },
///     "convergence": { iterations-to-tolerance, overflow half-life,
///                      slack percentiles ... } }
/// Convergence entries are distilled from the flight recorder's current
/// streams; when the recorder is off they are simply absent and
/// metric_diff.py reports them as added/removed, not as errors.
telemetry::Json qor_json(std::string_view design, std::string_view flow_name,
                         const FlowResult& result);

/// Writes qor_json() to `path` (pretty-printed); false on I/O error.
bool write_qor(const std::string& path, std::string_view design,
               std::string_view flow_name, const FlowResult& result);

}  // namespace ppacd::flow
