/// \file global_placer.hpp
/// \brief Quadratic global placement with bound-to-bound net model and
/// FastPlace-style cell-shifting spreading (RePlAce/OpenROAD substitute).
///
/// The engine provides the two entry points Algorithm 1 needs:
///   * run(): placement from scratch (default flat flow, cluster seed
///     placement),
///   * run_incremental(seed): continue from given locations with anchoring,
///     mirroring `globalPlacement -incremental` / `place_design -incremental`
///     in the seeded placement step (Alg. 1 lines 19/25).
/// A `place.solve` failure mid-run stops early with the best placement so
/// far (PlaceResult::degrade_code); allocation failure throws
/// std::bad_alloc.
///
/// Each outer iteration solves two independent 1-D quadratic programs
/// (x and y) built from the bound-to-bound (B2B) net model [Spindler et al.]
/// with Jacobi-preconditioned conjugate gradient, then spreads overfilled
/// bins by cell shifting and anchors cells to their spread locations with a
/// growing pseudo-net weight. Region constraints (fences) are enforced by
/// clamping after every spreading step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "place/model.hpp"
#include "util/rng.hpp"

namespace ppacd::place {

/// Reusable solver/density scratch owned by one GlobalPlacer instance
/// (defined in the .cpp). Holding it across iterations and runs means the
/// steady-state optimize loop performs no heap allocation.
struct PlacerScratch;

/// How overfilled bins are resolved between quadratic solves.
enum class SpreadMode {
  kCellShift,  ///< FastPlace cell shifting (standard cells)
  kBisection,  ///< capacity-balanced recursive bisection (cluster macros,
               ///< which cell shifting cannot untangle)
};

struct GlobalPlacerOptions {
  SpreadMode spread_mode = SpreadMode::kCellShift;
  int max_iterations = 24;
  int min_iterations = 5;
  int cg_max_iterations = 60;
  double cg_tolerance = 1e-4;
  /// Bin edge length in row heights for the spreading grid.
  double bin_rows = 4.0;
  /// Stop once (overfill area / movable area) drops below this.
  double target_overflow = 0.08;
  /// Pseudo-net anchor weight; multiplied by the iteration number.
  double anchor_base = 0.01;
  /// Cell-shifting sweeps per spreading step.
  int spread_passes = 10;
  /// Iterations for the incremental mode.
  int incremental_iterations = 14;
  /// Extra anchor weight toward the seed placement in incremental mode.
  double incremental_anchor = 0.02;
  /// Incremental runs resume the anchor-weight schedule at this iteration
  /// index: the seed stands in for the global exploration already done, so
  /// the first solve must not collapse it back to the quadratic optimum.
  int incremental_anchor_offset = 12;
  /// Fraction of the iteration budget during which region (fence)
  /// constraints are enforced; afterwards they are released so the final
  /// refinement is unconstrained (mirrors Alg. 1 line 20, "remove region
  /// constraints"). 1.0 keeps fences throughout.
  double region_release_fraction = 0.5;
  /// Record one telemetry span per outer iteration ("place.gp.iter", with
  /// overflow/HPWL attributes). Off by default so the hundreds of placer
  /// runs inside V-P&R shape sweeps stay out of the trace; the flow turns
  /// it on for its top-level placements. The iteration counter is recorded
  /// regardless.
  bool trace_iterations = false;
  std::uint64_t seed = 1;
};

struct PlaceResult {
  Placement placement;   ///< centers for all objects (fixed ones included)
  double hpwl_um = 0.0;  ///< weighted model HPWL
  double overflow = 0.0; ///< residual overfill ratio
  int iterations = 0;
  /// Empty on a clean run; otherwise the error code of the `place.solve`
  /// failure that made the placer stop early with the best placement so far
  /// (e.g. "place-solve-failed", "non-finite-result").
  std::string degrade_code;
};

class GlobalPlacer {
 public:
  GlobalPlacer(const PlaceModel& model, const GlobalPlacerOptions& options);
  ~GlobalPlacer();

  /// Global placement from scratch.
  PlaceResult run();

  /// Incremental placement from `seed` (e.g. cluster-center-induced
  /// locations). `seed` must cover all objects; fixed objects keep their
  /// fixed positions regardless.
  PlaceResult run_incremental(const Placement& seed);

 private:
  PlaceResult optimize(Placement positions, int iterations,
                       const Placement* seed_anchor);
  void solve_direction(bool x_dir, Placement& positions,
                       const Placement& anchor_targets, double anchor_weight,
                       const Placement* seed_anchor);
  /// Cell shifting; returns the overflow ratio before shifting.
  double spread(Placement& positions);
  /// Recursive bisection spreading for macro-like objects.
  void spread_bisection(Placement& positions);
  /// Overflow ratio of `positions` on the spreading grid (footprint-smeared).
  double measure_overflow(const Placement& positions) const;
  /// Footprint-smeared movable area per spreading-grid bin, accumulated in
  /// parallel (per-chunk bin scratch merged in fixed chunk order).
  void accumulate_area(const Placement& positions,
                       std::vector<double>& area) const;
  void clamp_to_core_and_regions(Placement& positions);

  const PlaceModel* model_;
  GlobalPlacerOptions options_;
  double seed_weight_ = 0.0;  ///< current (decayed) seed-anchor weight
  bool regions_active_ = true;  ///< fences enforced in the current iteration
  // Flight-recorder series for the current optimize() run (-1 = off). CG
  // residuals use one series per direction so (index, sub) keys stay unique.
  std::int32_t obs_iter_series_ = -1;
  std::int32_t obs_cg_series_[2] = {-1, -1};  ///< [0] = x solves, [1] = y
  std::int64_t obs_iter_ = 0;                 ///< outer iteration being solved
  // Spreading grid (fixed by core + bin_rows) and per-bin blockage area.
  int grid_nx_ = 1;
  int grid_ny_ = 1;
  double bin_w_ = 1.0;
  double bin_h_ = 1.0;
  std::vector<double> blockage_area_;  ///< per bin, from blockage objects
  std::vector<std::int32_t> movable_;        ///< object -> dense movable index or -1
  std::vector<std::int32_t> movable_objects_; ///< dense movable index -> object
  /// Mutable: const queries (overflow measurement) reuse the same buffers.
  mutable std::unique_ptr<PlacerScratch> scratch_;
};

}  // namespace ppacd::place
