#include "place/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/csr.hpp"

namespace ppacd::place {

namespace {

geom::Rect clip(const geom::Rect& r, const geom::Rect& core) {
  return geom::Rect::make(std::max(r.lx, core.lx), std::max(r.ly, core.ly),
                          std::min(r.ux, core.ux), std::min(r.uy, core.uy));
}

/// Recursive weighted bisection over `order[lo, hi)`; assigns shards
/// [shard, shard + count) and never depends on container iteration order.
void bisect(const std::vector<ShardGroup>& groups, std::vector<std::int32_t>& order,
            std::vector<std::int32_t>& shard_of_group, std::size_t lo,
            std::size_t hi, int shard, int count) {
  if (count <= 1 || hi - lo <= 1) {
    for (std::size_t i = lo; i < hi; ++i) shard_of_group[order[i]] = shard;
    return;
  }
  geom::BBox box;
  std::int64_t total = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    box.expand(groups[order[i]].center);
    total += std::max<std::int64_t>(1, groups[order[i]].weight);
  }
  const geom::Rect extent = box.rect();
  const bool split_x = extent.width() >= extent.height();
  std::stable_sort(order.begin() + lo, order.begin() + hi,
                   [&](std::int32_t a, std::int32_t b) {
                     const double ca = split_x ? groups[a].center.x : groups[a].center.y;
                     const double cb = split_x ? groups[b].center.x : groups[b].center.y;
                     if (ca != cb) return ca < cb;
                     return a < b;  // total order: ties broken by group index
                   });
  int left_count = count / 2;
  const double target =
      static_cast<double>(total) * left_count / static_cast<double>(count);
  // Weight-balanced prefix split; both sides keep at least one group.
  std::size_t mid = lo + 1;
  std::int64_t prefix = std::max<std::int64_t>(1, groups[order[lo]].weight);
  while (mid < hi - 1 && static_cast<double>(prefix) < target) {
    prefix += std::max<std::int64_t>(1, groups[order[mid]].weight);
    ++mid;
  }
  // A side can host at most one shard per group. When one heavy group pulls
  // the weight-balanced cut right next to it, rebalance the shard split so
  // neither side gets more shards than groups — otherwise a shard ends up
  // empty and its region degenerates.
  const int left_groups = static_cast<int>(mid - lo);
  const int right_groups = static_cast<int>(hi - mid);
  left_count = std::clamp(left_count, std::max(1, count - right_groups),
                          std::min(count - 1, left_groups));
  bisect(groups, order, shard_of_group, lo, mid, shard, left_count);
  bisect(groups, order, shard_of_group, mid, hi, shard + left_count,
         count - left_count);
}

struct ShardSolved {
  Placement placement;   ///< per local movable, in shard-object order
  ShardStat stat;
  fault::FlowError failure;  ///< code empty when the solve succeeded
};

std::string shard_detail(int shard, const ShardStat& stat) {
  std::ostringstream out;
  out << "shard " << shard << " (" << stat.movables << " movables, "
      << stat.terminals << " terminals)";
  return out.str();
}

}  // namespace

RegionPartition partition_regions(const std::vector<ShardGroup>& groups,
                                  const geom::Rect& core, int shards) {
  RegionPartition partition;
  if (groups.empty()) {
    partition.regions.assign(1, core);
    partition.weights.assign(1, 0);
    return partition;
  }
  const int count = std::clamp<int>(shards, 1, static_cast<int>(groups.size()));
  partition.shard_of_group.assign(groups.size(), 0);
  std::vector<std::int32_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  bisect(groups, order, partition.shard_of_group, 0, order.size(), 0, count);

  // Region per shard: bounding box of the member rects, inflated to hold the
  // member footprint area at placement density, clipped to the core.
  partition.regions.assign(count, geom::Rect{});
  partition.weights.assign(count, 0);
  std::vector<geom::BBox> boxes(count);
  std::vector<double> areas(count, 0.0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const int s = partition.shard_of_group[g];
    boxes[s].expand(geom::Point{groups[g].rect.lx, groups[g].rect.ly});
    boxes[s].expand(geom::Point{groups[g].rect.ux, groups[g].rect.uy});
    boxes[s].expand(groups[g].center);
    areas[s] += groups[g].rect.area();
    partition.weights[s] += std::max<std::int64_t>(1, groups[g].weight);
  }
  constexpr double kRegionDensity = 0.7;
  for (int s = 0; s < count; ++s) {
    geom::Rect region = clip(boxes[s].rect(), core);
    const double needed = areas[s] / kRegionDensity;
    if (region.area() < needed) {
      // Inflate about the center to the needed area (aspect ratio 1 when the
      // box is degenerate), then re-clip.
      const geom::Point c = region.center();
      double w = region.width();
      double h = region.height();
      if (w <= 0.0 || h <= 0.0) {
        w = h = std::sqrt(std::max(needed, 1.0));
      } else {
        const double scale = std::sqrt(needed / std::max(region.area(), 1e-12));
        w *= scale;
        h *= scale;
      }
      region = clip(geom::Rect::make(c.x - w * 0.5, c.y - h * 0.5,
                                     c.x + w * 0.5, c.y + h * 0.5),
                    core);
    }
    partition.regions[s] = region;
  }
  return partition;
}

ShardedPlaceResult place_sharded(
    const PlaceModel& flat, const Placement& seed,
    const std::vector<std::int32_t>& shard_of_object,
    const RegionPartition& partition, const ShardedOptions& sharded,
    const GlobalPlacerOptions& placer) {
  const std::size_t object_count = flat.objects.size();
  PPACD_CHECK(seed.size() == object_count,
              "sharded seed covers " << seed.size() << " of " << object_count
                                     << " objects");
  PPACD_CHECK(shard_of_object.size() == object_count,
              "shard_of_object covers " << shard_of_object.size() << " of "
                                        << object_count << " objects");
  const int shard_count = partition.shard_count();
  PPACD_CHECK(shard_count >= 1, "partition has no regions");

  telemetry::TraceSpan span("place.sharded");
  span.anchor();

  // --- Extraction (serial): carve per-shard object and net slices -----------
  // Everything here is a flat array indexed by object/net/shard id; no
  // pointer-chasing containers and no iteration-order dependence.
  util::Arena arena;
  auto local_index = arena.alloc<std::int32_t>(object_count);
  util::Csr<std::int32_t> shard_objects;  // shard -> global movable object ids
  shard_objects.start_rows(static_cast<std::size_t>(shard_count));
  for (std::size_t i = 0; i < object_count; ++i) {
    const std::int32_t s = shard_of_object[i];
    if (s < 0) continue;
    PPACD_CHECK(s < shard_count, "object " << i << " maps to shard " << s
                                           << " of " << shard_count);
    if (flat.objects[i].fixed) continue;  // fixed objects stay terminals
    shard_objects.add_to_row(static_cast<std::size_t>(s));
  }
  shard_objects.commit_rows();
  {
    auto cursor = arena.alloc<std::int32_t>(static_cast<std::size_t>(shard_count));
    for (std::size_t i = 0; i < object_count; ++i) {
      const std::int32_t s = shard_of_object[i];
      if (s < 0 || flat.objects[i].fixed) {
        local_index[i] = -1;
        continue;
      }
      local_index[i] = cursor[s]++;
      shard_objects.push(static_cast<std::size_t>(s),
                         static_cast<std::int32_t>(i));
    }
  }

  // Net slices: a net belongs to every shard holding at least one of its
  // movable pins. Distinct touched shards per net are collected with an
  // epoch-stamped scratch array (O(pins) per net, no sets, no hashing).
  const std::size_t net_count = flat.nets.size();
  auto touched_epoch = arena.alloc<std::int64_t>(static_cast<std::size_t>(shard_count));
  auto touched_pins = arena.alloc<std::int64_t>(static_cast<std::size_t>(shard_count));
  auto touched_list = arena.alloc<std::int32_t>(static_cast<std::size_t>(shard_count));
  std::int64_t epoch = 0;
  util::Csr<std::int32_t> shard_nets;  // shard -> global net ids
  std::vector<ShardStat> stats(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    stats[s].movables =
        static_cast<std::int64_t>(shard_objects.row_size(static_cast<std::size_t>(s)));
  }
  shard_nets.start_rows(static_cast<std::size_t>(shard_count));
  const auto scan_net = [&](std::size_t n, auto&& emit) {
    ++epoch;
    std::size_t touched = 0;
    const PlaceNet& net = flat.nets[n];
    for (const std::int32_t obj : net.objects) {
      const std::int32_t s = local_index[obj] >= 0 ? shard_of_object[obj] : -1;
      if (s < 0) continue;
      if (touched_epoch[s] != epoch) {
        touched_epoch[s] = epoch;
        touched_pins[s] = 0;
        touched_list[touched++] = s;
      }
      ++touched_pins[s];
    }
    const auto total = static_cast<std::int64_t>(net.objects.size());
    for (std::size_t t = 0; t < touched; ++t) {
      const std::int32_t s = touched_list[t];
      const std::int64_t local = touched_pins[s];
      const std::int64_t external = total - local;
      if (local + external < 2) continue;  // single-pin net: no force
      emit(s, n, external);
    }
  };
  for (std::size_t n = 0; n < net_count; ++n) {
    scan_net(n, [&](std::int32_t s, std::size_t, std::int64_t external) {
      shard_nets.add_to_row(static_cast<std::size_t>(s));
      stats[s].nets += 1;
      stats[s].terminals += external;
    });
  }
  shard_nets.commit_rows();
  for (std::size_t n = 0; n < net_count; ++n) {
    scan_net(n, [&](std::int32_t s, std::size_t net, std::int64_t) {
      shard_nets.push(static_cast<std::size_t>(s), static_cast<std::int32_t>(net));
    });
  }

  // --- Concurrent per-shard solves ------------------------------------------
  // One shard per chunk; each shard builds its own sub-model and placer
  // scratch and writes only its stats slot, so results depend on the shard
  // index alone — never on the thread count or completion order.
  std::vector<ShardSolved> solved(static_cast<std::size_t>(shard_count));
  exec::parallel_for(0, static_cast<std::size_t>(shard_count), 1, [&](std::size_t s) {
    ShardSolved& out = solved[s];
    out.stat = stats[s];
    const geom::Rect region = partition.regions[s];
    const auto fired = fault::trigger("place.shard", static_cast<std::uint64_t>(s));
    if (fired == fault::FaultKind::kError || fired == fault::FaultKind::kTimeout ||
        fired == fault::FaultKind::kAlloc) {
      out.failure = fault::make_error("place.shard", *fired);
      return;
    }
    try {
      const auto members = shard_objects.row(s);
      const auto nets = shard_nets.row(s);
      PlaceModel sub;
      sub.core = region;
      sub.row_height_um = flat.row_height_um;
      sub.objects.reserve(members.size() +
                          static_cast<std::size_t>(out.stat.terminals));
      Placement sub_seed;
      sub_seed.reserve(members.size() +
                       static_cast<std::size_t>(out.stat.terminals));
      for (const std::int32_t obj : members) {
        PlaceObject o = flat.objects[obj];
        o.region.reset();  // fences do not apply inside a shard
        sub.objects.push_back(o);
        sub_seed.push_back(seed[obj]);
      }
      // Boundary terminals: every external pin of a sliced net is fixed at
      // its seed position clamped into the shard region — the region
      // crossing. Terminals are appended in (net, pin) order so local ids
      // are deterministic.
      sub.nets.reserve(nets.size());
      for (const std::int32_t n : nets) {
        const PlaceNet& net = flat.nets[n];
        PlaceNet local_net;
        local_net.weight = net.weight;
        local_net.objects.reserve(net.objects.size());
        for (const std::int32_t obj : net.objects) {
          const bool interior = local_index[obj] >= 0 &&
                                shard_of_object[obj] == static_cast<std::int32_t>(s);
          if (interior) {
            local_net.objects.push_back(local_index[obj]);
          } else {
            PlaceObject terminal;
            terminal.fixed = true;
            terminal.fixed_position = region.clamp(seed[obj]);
            local_net.objects.push_back(
                static_cast<std::int32_t>(sub.objects.size()));
            sub.objects.push_back(terminal);
            sub_seed.push_back(terminal.fixed_position);
          }
        }
        sub.nets.push_back(std::move(local_net));
      }

      GlobalPlacerOptions sub_options = placer;
      sub_options.incremental_iterations = sharded.shard_iterations;
      sub_options.trace_iterations = false;  // serial-only series; merged pass
                                             // below owns the place.shard series
      sub_options.seed =
          placer.seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(s) + 1));
      GlobalPlacer sub_placer(sub, sub_options);
      PlaceResult placed = sub_placer.run_incremental(sub_seed);
      if (fired == fault::FaultKind::kPoison) {
        placed.hpwl_um = fault::poison_value();
      }
      bool finite = std::isfinite(placed.hpwl_um);
      for (std::size_t m = 0; finite && m < members.size(); ++m) {
        finite = std::isfinite(placed.placement[m].x) &&
                 std::isfinite(placed.placement[m].y);
      }
      if (!finite) {
        out.failure = fault::make_error("place.shard", fault::FaultKind::kPoison);
        return;
      }
      out.stat.hpwl_um = placed.hpwl_um;
      out.stat.overflow = placed.overflow;
      out.stat.iterations = placed.iterations;
      out.stat.degrade_code = placed.degrade_code;
      out.placement.assign(placed.placement.begin(),
                           placed.placement.begin() +
                               static_cast<std::ptrdiff_t>(members.size()));
    } catch (const std::bad_alloc&) {
      out.failure = fault::make_error("place.shard", fault::FaultKind::kAlloc);
    }
  });

  // --- Merge + degradation accounting (serial, shard order) -----------------
  ShardedPlaceResult result;
  result.placement = seed;
  for (std::size_t i = 0; i < object_count; ++i) {
    if (flat.objects[i].fixed) result.placement[i] = flat.objects[i].fixed_position;
  }
  result.shards.resize(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    ShardSolved& out = solved[s];
    if (!out.failure.code.empty()) {
      out.stat.fell_back = true;
      out.stat.failure_code = out.failure.code;
      fault::record_degradation({"place.shard", out.failure.code, "vpr-seed",
                                 shard_detail(s, out.stat)});
    } else {
      const auto members = shard_objects.row(static_cast<std::size_t>(s));
      for (std::size_t m = 0; m < members.size(); ++m) {
        result.placement[members[m]] = out.placement[m];
      }
      if (!out.stat.degrade_code.empty()) {
        fault::record_degradation({"place.solve", out.stat.degrade_code,
                                   "early-stop", shard_detail(s, out.stat)});
      }
    }
    result.shards[s] = std::move(out.stat);
  }

  // --- Stitch: bounded global refinement for cross-shard nets ---------------
  if (sharded.stitch_iterations > 0) {
    GlobalPlacerOptions stitch_options = placer;
    stitch_options.incremental_iterations = sharded.stitch_iterations;
    GlobalPlacer stitch_placer(flat, stitch_options);
    const PlaceResult stitched =
        stitch_placer.run_incremental(result.placement);
    if (!stitched.degrade_code.empty()) {
      fault::record_degradation({"place.solve", stitched.degrade_code,
                                 "early-stop", "sharded stitch"});
    }
    result.placement = stitched.placement;
    result.hpwl_um = stitched.hpwl_um;
    result.overflow = stitched.overflow;
    result.stitch_iterations = stitched.iterations;
    result.stitch_degrade_code = stitched.degrade_code;
  } else {
    result.hpwl_um = total_hpwl(flat, result.placement);
  }

  if (observe::active()) {
    // Serial emit point: one place.shard series per sharded pass, one sample
    // per shard plus a summary sample at index == shard_count.
    observe::Recorder& rec = observe::recorder();
    const std::int32_t series = rec.begin_series(observe::Stream::kPlaceShard);
    std::int64_t fallbacks = 0;
    for (int s = 0; s < shard_count; ++s) {
      const ShardStat& stat = result.shards[s];
      fallbacks += stat.fell_back ? 1 : 0;
      rec.record(observe::Stream::kPlaceShard, series, s, 0,
                 {static_cast<double>(stat.movables), stat.hpwl_um,
                  static_cast<double>(stat.iterations), stat.overflow});
    }
    rec.record(observe::Stream::kPlaceShard, series, shard_count, 0,
               {result.hpwl_um, result.overflow,
                static_cast<double>(result.stitch_iterations),
                static_cast<double>(fallbacks)});
  }

  span.attr("shards", shard_count);
  span.attr("hpwl_um", result.hpwl_um);
  return result;
}

}  // namespace ppacd::place
