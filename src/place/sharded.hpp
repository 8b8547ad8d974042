/// \file sharded.hpp
/// \brief Region-sharded placement: partition the floorplan into cluster
/// regions, place each region's cells as an independent sub-problem, then
/// stitch the shard placements with a short bounded global refinement.
///
/// This is the scale unlock the paper's clustering buys (ROADMAP item 2):
/// the top-level clusters already induce a geometric decomposition of the
/// die (their V-P&R-shaped, seed-placed footprints), so the seeded flat
/// placement — one CG system over every cell — can be replaced by K much
/// smaller systems, one per region, whose boundary nets are pinned to fixed
/// terminals at the region crossings. Smaller systems converge in fewer CG
/// iterations for the same relative tolerance, so the sharded pass is faster
/// even before any thread-level parallelism; on multi-core the shards also
/// run concurrently.
///
/// Determinism contract (DESIGN.md §16): shard membership, sub-problem
/// extraction, and the stitch all depend only on (model, seed placement,
/// shard count) — never on thread count or completion order. The per-shard
/// solves run under exec::parallel_for with one shard per chunk and write to
/// disjoint index ranges; degradations and flight-recorder samples are
/// recorded after the parallel region in shard-index order. Results are
/// bit-identical at any thread count for a fixed shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.hpp"
#include "place/global_placer.hpp"
#include "place/model.hpp"

namespace ppacd::place {

/// Knobs of the sharded placement pass (FlowOptions::sharding).
struct ShardedOptions {
  /// Requested shard count; clamped to [1, group count]. 1 degenerates to
  /// "one region holding everything" and is the determinism-test anchor.
  int shards = 8;
  /// Incremental iterations per shard solve (each shard continues from its
  /// cluster-induced seed, so it needs fewer iterations than a monolithic
  /// incremental pass).
  int shard_iterations = 8;
  /// Iterations of the bounded global refinement that resolves cross-shard
  /// nets after the merge. 0 skips the stitch solve (merge only).
  int stitch_iterations = 4;
};

/// One partitionable unit: a top-level cluster's placed footprint. `weight`
/// is the cluster's cell count (the partitioner balances total weight).
struct ShardGroup {
  geom::Point center;
  geom::Rect rect;
  std::int64_t weight = 1;
};

/// Output of the region partitioner.
struct RegionPartition {
  std::vector<std::int32_t> shard_of_group;  ///< group -> shard index
  std::vector<geom::Rect> regions;  ///< shard -> region (clipped to core)
  std::vector<std::int64_t> weights;  ///< shard -> total member weight
  int shard_count() const { return static_cast<int>(regions.size()); }
};

/// Maps each group (top-level cluster) to one of `shards` floorplan regions
/// by recursive weighted bisection over the group centers: the current set
/// is split along the longer axis of its bounding box at the
/// weight-balanced prefix, recursing until one shard per set remains. A
/// shard's region is the bounding box of its member rects, inflated to hold
/// the member area at placement density and clipped to `core`. Purely a
/// function of the inputs — no RNG, no iteration-order dependence.
RegionPartition partition_regions(const std::vector<ShardGroup>& groups,
                                  const geom::Rect& core, int shards);

/// Per-shard outcome, in shard-index order.
struct ShardStat {
  std::int64_t movables = 0;   ///< movable objects solved in this shard
  std::int64_t nets = 0;       ///< sliced nets (interior + boundary)
  std::int64_t terminals = 0;  ///< boundary pins fixed at region crossings
  double hpwl_um = 0.0;        ///< shard-model HPWL (0 when fell_back)
  double overflow = 0.0;
  int iterations = 0;
  /// Nested place.solve early-stop inside this shard's solve, recorded as a
  /// "place.solve" degradation.
  std::string degrade_code;
  /// Set when the shard solve failed outright (injected error, allocation
  /// failure, or a non-finite result) and the shard fell back to its
  /// cluster-induced seed.
  std::string failure_code;
  bool fell_back = false;
};

struct ShardedPlaceResult {
  Placement placement;  ///< stitched centers for all flat-model objects
  double hpwl_um = 0.0;   ///< weighted model HPWL after the stitch
  double overflow = 0.0;  ///< residual overflow after the stitch
  int stitch_iterations = 0;
  std::string stitch_degrade_code;  ///< place.solve early-stop in the stitch
  std::vector<ShardStat> shards;
};

/// The sharded placement pass over a flat model:
///   1. slice the model into per-shard sub-problems (flat CSR arrays carved
///      from one arena; boundary pins become fixed terminals at their seed
///      position clamped into the shard region — the region crossing),
///   2. solve every shard concurrently (GlobalPlacer::run_incremental
///      from the shard's slice of `seed`, per-shard scratch, deterministic
///      per-shard solver seeds),
///   3. merge the shard placements and run a bounded global incremental
///      refinement for the cross-shard nets.
///
/// `shard_of_object` maps every flat-model object to its shard (movables) or
/// -1 (fixed objects and unassigned movables; the latter keep their seed
/// positions and act as terminals). Fault site "place.shard" (key = shard
/// index) forces individual shard failures; a failed shard, including one
/// that runs out of memory, falls back to its seed. Degradations and the
/// `place.shard` flight-recorder series are emitted post-merge in shard
/// order, so degraded runs stay bit-identical across thread counts.
/// Allocation failure in the stitch throws std::bad_alloc.
ShardedPlaceResult place_sharded(
    const PlaceModel& flat, const Placement& seed,
    const std::vector<std::int32_t>& shard_of_object,
    const RegionPartition& partition, const ShardedOptions& sharded,
    const GlobalPlacerOptions& placer);

}  // namespace ppacd::place
