/// \file fault.hpp
/// \brief Deterministic, seed-driven fault injection and the flow-wide
/// degradation log.
///
/// The paper's flow already contains a natural degradation path (Sec. 3.2:
/// the GNN stands in for 20 virtual P&R runs, and actual P&R is the fallback
/// when the predictor is unavailable or out-of-distribution). This module
/// generalizes that idea: named *fault sites* inside the subsystems consult
/// a process-wide `FaultPlan` and, when a fault fires, force the site down
/// its error path — so the fallbacks (always on; DESIGN.md §12 lists them)
/// are continuously exercisable instead of dead code.
///
/// Registered sites (DESIGN.md §12 has the full table):
///   io.read         netlist / model deserialization
///   vpr.shape_eval  one V-P&R shape-candidate evaluation
///   ml.predict      the GNN TotalCost predictor call
///   place.shard     one shard solve of the sharded placement pass
///   place.solve     one global-placement outer iteration
///   route.maze      one net's (re)route
///   sta.arrival     the STA propagation pass
///
/// Determinism: a fault fires as a pure function of (plan seed, site,
/// logical key, attempt) — never of dynamic hit order — so injected runs are
/// bit-identical at any thread count. The `key` is a caller-chosen stable id
/// for the logical operation (cluster index, net id, iteration number).
///
/// Plan spec grammar (CLI `--fault-plan`, env `PPACD_FAULTS`):
///   spec    := entry (';' entry)*
///   entry   := 'seed=' UINT | SITE '=' KIND selector*
///   KIND    := 'error' | 'timeout' | 'poison' | 'alloc'
///   selector:= '@' UINT   fire only for logical key UINT-1 (1-based)
///            | '%' FLOAT  fire with this probability (deterministic hash)
/// With no selector the fault fires on every hit. Examples:
///   "vpr.shape_eval=error"            every candidate eval fails
///   "route.maze=error%0.25;seed=7"    a quarter of the nets fail (seeded)
///   "ml.predict=timeout@2"            the 2nd cluster's predictor times out
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/expected.hpp"
#include "telemetry/json.hpp"

namespace ppacd::fault {

// ---------------------------------------------------------------------------
// Fault kinds and plans
// ---------------------------------------------------------------------------

/// What an armed site is forced to do.
enum class FaultKind {
  kError,    ///< return the site's structured error
  kTimeout,  ///< behave as if the operation exceeded its deadline
  kPoison,   ///< inject NaN into the site's numeric result
  kAlloc,    ///< simulate allocation failure (std::bad_alloc path)
};

const char* to_string(FaultKind kind);

/// One plan entry: inject `kind` at `site`, filtered by the selectors.
struct FaultSpec {
  std::string site;
  FaultKind kind = FaultKind::kError;
  /// 0 = every key; N>0 = only the logical operation with key N-1.
  std::uint64_t nth = 0;
  /// Firing probability in (0,1]; 1.0 = unconditional. Evaluated as a
  /// deterministic hash of (plan seed, site, key, attempt), so retries of a
  /// probabilistic (transient) fault may succeed while `nth`/unconditional
  /// (permanent) faults keep firing.
  double probability = 1.0;

  friend bool operator==(const FaultSpec& a, const FaultSpec& b) {
    return a.site == b.site && a.kind == b.kind && a.nth == b.nth &&
           a.probability == b.probability;
  }
};

/// A full injection campaign: seed + one spec per site.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.seed == b.seed && a.specs == b.specs;
  }
};

/// Parses the spec grammar above. Unknown sites, kinds, or malformed
/// selectors yield an error naming the offending entry.
Expected<FaultPlan, FlowError> parse_plan(std::string_view spec);

/// Canonical spec string; parse_plan(to_spec(plan)) == plan (round-trip).
std::string to_spec(const FaultPlan& plan);

/// The fixed site registry (sorted). parse_plan validates against it and the
/// fault campaign test iterates it.
const std::vector<std::string>& registered_sites();

// ---------------------------------------------------------------------------
// Process-wide plan
// ---------------------------------------------------------------------------

/// Installs `plan` process-wide (replacing any previous plan).
void set_plan(const FaultPlan& plan);

/// Removes the active plan; trigger() reverts to its no-op fast path.
void clear_plan();

/// True when a non-empty plan is installed (relaxed-atomic fast check).
bool plan_active();

/// Installs a plan from the PPACD_FAULTS environment variable, if set.
/// Returns false (with the parse error) on a malformed value.
Expected<void, FlowError> install_env_plan();

/// The injection decision for one logical operation at `site`. Returns
/// nullopt (and costs one relaxed atomic load) when no plan is active.
/// `key` identifies the logical operation (NOT the dynamic hit index) and
/// `attempt` distinguishes retries — both feed the deterministic hash so
/// results are thread-count independent. Fired injections bump the
/// `fault.injected.<kind>` counters.
std::optional<FaultKind> trigger(std::string_view site, std::uint64_t key = 0,
                                 std::uint32_t attempt = 0);

/// Maps a fired fault to its structured error: kError -> "<site>-failed",
/// kTimeout -> "<site>-timeout", kPoison -> "non-finite-result", kAlloc ->
/// "alloc-failure" (site dots become dashes, underscores too).
FlowError make_error(std::string_view site, FaultKind kind);

/// Quiet NaN, for sites implementing kPoison on a numeric result.
double poison_value();

// ---------------------------------------------------------------------------
// Degradation / error log
// ---------------------------------------------------------------------------
// Mirrors the src/check process-wide log: fallback points record what they
// degraded and why; the JSON run report serializes the log into its
// "errors" / "degradations" arrays and tests reset it between cases.
// Recording must happen from serial context (or in a deterministic order)
// so degraded runs stay bit-identical across thread counts.

/// One graceful degradation: `site` failed with `error_code`, the flow
/// continued via `fallback` (e.g. "vpr-exact", "default-shape",
/// "partial-routes", "hpwl-only", "early-stop").
struct Degradation {
  std::string site;
  std::string error_code;
  std::string fallback;
  std::string detail;

  friend bool operator==(const Degradation& a, const Degradation& b) {
    return a.site == b.site && a.error_code == b.error_code &&
           a.fallback == b.fallback && a.detail == b.detail;
  }
};

/// Appends to the degradation log and bumps `fault.degrade.<label>` where
/// `label` is `fallback` with dashes mapped to underscores.
void record_degradation(Degradation degradation);

/// Appends a non-fatal structured error to the error log (fatal errors are
/// returned through Expected instead and recorded by the caller that
/// serializes the run report).
void record_error(FlowError error);

std::vector<Degradation> degradation_log();
std::vector<FlowError> error_log();
void reset_log();

/// The logs as JSON arrays for the run report: errors as
/// [{code, site, message}...], degradations as
/// [{site, error_code, fallback, detail}...].
telemetry::Json errors_json();
telemetry::Json degradations_json();

}  // namespace ppacd::fault
