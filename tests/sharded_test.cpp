/// \file sharded_test.cpp
/// \brief Unit tests for the region partitioner and the sharded placement
/// pass (place/sharded.hpp): weight balance, determinism, clamping, the
/// fixed/unassigned-object contract, and shard-stat accounting — all below
/// the flow layer, on small synthetic models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "place/sharded.hpp"

namespace ppacd::place {
namespace {

geom::Rect core() { return geom::Rect::make(0.0, 0.0, 100.0, 100.0); }

/// Groups on a grid: `nx * ny` unit-weight clusters with 10x10 footprints,
/// centers spaced 20 um apart starting at (10, 10).
std::vector<ShardGroup> grid_groups(int nx, int ny, std::int64_t weight = 1) {
  std::vector<ShardGroup> groups;
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      ShardGroup g;
      g.center = geom::Point{10.0 + 20.0 * x, 10.0 + 20.0 * y};
      g.rect = geom::Rect::make(g.center.x - 5.0, g.center.y - 5.0,
                                g.center.x + 5.0, g.center.y + 5.0);
      g.weight = weight;
      groups.push_back(g);
    }
  }
  return groups;
}

TEST(RegionPartitionTest, BalancesUniformWeightsAcrossShards) {
  const auto groups = grid_groups(4, 4);
  const RegionPartition p = partition_regions(groups, core(), 4);
  ASSERT_EQ(p.shard_count(), 4);
  ASSERT_EQ(p.shard_of_group.size(), groups.size());
  std::int64_t total = 0;
  for (const std::int64_t w : p.weights) {
    EXPECT_EQ(w, 4) << "16 unit groups over 4 shards must balance exactly";
    total += w;
  }
  EXPECT_EQ(total, 16);
  for (const std::int32_t s : p.shard_of_group) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, p.shard_count());
  }
}

TEST(RegionPartitionTest, SkewedWeightsStayWithinCapacityFactor) {
  // One heavy group cannot be split, but the remaining groups must not all
  // pile onto its shard: every other shard carries a fair share.
  auto groups = grid_groups(4, 4);
  groups[0].weight = 100;
  const RegionPartition p = partition_regions(groups, core(), 4);
  ASSERT_EQ(p.shard_count(), 4);
  int nonempty = 0;
  for (const std::int64_t w : p.weights) {
    EXPECT_GT(w, 0) << "bisection guarantees >= 1 group per shard";
    if (w > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 4);
}

TEST(RegionPartitionTest, DeterministicAcrossRepeatedCalls) {
  const auto groups = grid_groups(5, 3, 7);
  const RegionPartition a = partition_regions(groups, core(), 6);
  const RegionPartition b = partition_regions(groups, core(), 6);
  ASSERT_EQ(a.shard_of_group, b.shard_of_group);
  ASSERT_EQ(a.weights, b.weights);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].lx, b.regions[i].lx);
    EXPECT_EQ(a.regions[i].ly, b.regions[i].ly);
    EXPECT_EQ(a.regions[i].ux, b.regions[i].ux);
    EXPECT_EQ(a.regions[i].uy, b.regions[i].uy);
  }
}

TEST(RegionPartitionTest, RegionsCoverMembersAndStayInCore) {
  const auto groups = grid_groups(4, 4);
  const RegionPartition p = partition_regions(groups, core(), 8);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const geom::Rect& region = p.regions[p.shard_of_group[g]];
    EXPECT_TRUE(region.contains(groups[g].center)) << "group " << g;
  }
  const geom::Rect c = core();
  for (const geom::Rect& r : p.regions) {
    EXPECT_GE(r.lx, c.lx);
    EXPECT_GE(r.ly, c.ly);
    EXPECT_LE(r.ux, c.ux);
    EXPECT_LE(r.uy, c.uy);
    EXPECT_GT(r.area(), 0.0);
  }
}

TEST(RegionPartitionTest, ShardCountClampedToGroupCount) {
  const auto groups = grid_groups(2, 1);
  EXPECT_EQ(partition_regions(groups, core(), 16).shard_count(), 2);
  EXPECT_EQ(partition_regions(groups, core(), 0).shard_count(), 1);
  EXPECT_EQ(partition_regions(groups, core(), -3).shard_count(), 1);
}

TEST(RegionPartitionTest, EmptyGroupsYieldOneCoreRegion) {
  const RegionPartition p = partition_regions({}, core(), 8);
  ASSERT_EQ(p.shard_count(), 1);
  EXPECT_TRUE(p.shard_of_group.empty());
  const geom::Rect c = core();
  EXPECT_EQ(p.regions[0].lx, c.lx);
  EXPECT_EQ(p.regions[0].ux, c.ux);
}

TEST(RegionPartitionTest, CoincidentCentersStillPartition) {
  // Degenerate geometry: every center identical. Index tie-breaks must still
  // produce a full, deterministic partition.
  std::vector<ShardGroup> groups(6);
  for (auto& g : groups) {
    g.center = geom::Point{50.0, 50.0};
    g.rect = geom::Rect::make(45.0, 45.0, 55.0, 55.0);
    g.weight = 1;
  }
  const RegionPartition a = partition_regions(groups, core(), 3);
  const RegionPartition b = partition_regions(groups, core(), 3);
  ASSERT_EQ(a.shard_count(), 3);
  EXPECT_EQ(a.shard_of_group, b.shard_of_group);
  for (const std::int64_t w : a.weights) EXPECT_EQ(w, 2);
}

// ---------------------------------------------------------------------------
// place_sharded on a synthetic two-region model
// ---------------------------------------------------------------------------

struct ShardedFixture {
  PlaceModel model;
  Placement seed;
  std::vector<std::int32_t> shard_of_object;
  RegionPartition partition;
};

/// Two 8-cell clusters, one on the left half and one on the right, chained
/// internally plus one net crossing the cut. Object 16 is a fixed terminal.
ShardedFixture two_region_fixture() {
  ShardedFixture f;
  f.model.core = core();
  for (int i = 0; i < 16; ++i) {
    PlaceObject obj;
    obj.width_um = 1.0;
    obj.height_um = 1.0;
    f.model.objects.push_back(obj);
    const bool left = i < 8;
    const double bx = left ? 20.0 : 80.0;
    f.seed.push_back(geom::Point{bx + (i % 4) * 2.0, 40.0 + (i / 4 % 2) * 2.0});
  }
  PlaceObject terminal;
  terminal.fixed = true;
  terminal.fixed_position = geom::Point{50.0, 95.0};
  f.model.objects.push_back(terminal);
  f.seed.push_back(terminal.fixed_position);

  auto chain = [&](std::int32_t a, std::int32_t b) {
    PlaceNet net;
    net.objects = {a, b};
    f.model.nets.push_back(net);
  };
  for (std::int32_t i = 0; i + 1 < 8; ++i) chain(i, i + 1);
  for (std::int32_t i = 8; i + 1 < 16; ++i) chain(i, i + 1);
  chain(7, 8);    // crosses the cut -> boundary terminals in both shards
  chain(0, 16);   // net to the fixed terminal

  std::vector<ShardGroup> groups(2);
  groups[0].center = geom::Point{22.0, 41.0};
  groups[0].rect = geom::Rect::make(15.0, 35.0, 30.0, 48.0);
  groups[0].weight = 8;
  groups[1].center = geom::Point{82.0, 41.0};
  groups[1].rect = geom::Rect::make(75.0, 35.0, 90.0, 48.0);
  groups[1].weight = 8;
  f.partition = partition_regions(groups, f.model.core, 2);

  f.shard_of_object.assign(f.model.objects.size(), -1);
  for (int i = 0; i < 16; ++i) {
    f.shard_of_object[i] = f.partition.shard_of_group[i < 8 ? 0 : 1];
  }
  return f;
}

TEST(ShardedPlaceTest, SolvesTwoShardsWithFiniteResult) {
  ShardedFixture f = two_region_fixture();
  ShardedOptions sharded;
  sharded.shards = 2;
  const ShardedPlaceResult out =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  ASSERT_EQ(out.placement.size(), f.model.objects.size());
  EXPECT_TRUE(std::isfinite(out.hpwl_um));
  EXPECT_GT(out.hpwl_um, 0.0);
  ASSERT_EQ(out.shards.size(), 2u);
  for (const ShardStat& s : out.shards) {
    EXPECT_EQ(s.movables, 8);
    EXPECT_FALSE(s.fell_back);
    EXPECT_GT(s.nets, 0);
    EXPECT_GT(s.terminals, 0) << "cross-cut net must pin a boundary terminal";
  }
  for (const geom::Point& p : out.placement) {
    EXPECT_TRUE(f.model.core.contains(p));
  }
}

TEST(ShardedPlaceTest, FixedObjectsKeepTheirPositions) {
  ShardedFixture f = two_region_fixture();
  ShardedOptions sharded;
  sharded.shards = 2;
  const ShardedPlaceResult result =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  const geom::Point& p = result.placement.back();
  EXPECT_EQ(p.x, 50.0);
  EXPECT_EQ(p.y, 95.0);
}

TEST(ShardedPlaceTest, UnassignedMovablesKeepSeedWithoutStitch) {
  ShardedFixture f = two_region_fixture();
  f.shard_of_object[3] = -1;  // excluded from every shard
  ShardedOptions sharded;
  sharded.shards = 2;
  sharded.stitch_iterations = 0;  // merge only, so the contract is visible
  const ShardedPlaceResult result =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  const geom::Point& p = result.placement[3];
  EXPECT_EQ(p.x, f.seed[3].x);
  EXPECT_EQ(p.y, f.seed[3].y);
  EXPECT_EQ(result.shards[f.shard_of_object[2]].movables, 7);
}

TEST(ShardedPlaceTest, RepeatedRunsBitIdentical) {
  ShardedFixture f = two_region_fixture();
  ShardedOptions sharded;
  sharded.shards = 2;
  const ShardedPlaceResult a =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  const ShardedPlaceResult b =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_EQ(a.placement[i].x, b.placement[i].x) << i;
    EXPECT_EQ(a.placement[i].y, b.placement[i].y) << i;
  }
  EXPECT_EQ(a.hpwl_um, b.hpwl_um);
}

TEST(ShardedPlaceTest, ShardFaultFallsBackToSeed) {
  ShardedFixture f = two_region_fixture();
  auto plan = fault::parse_plan("seed=3;place.shard=error@1");
  ASSERT_TRUE(plan.has_value());
  fault::set_plan(plan.value());
  fault::reset_log();
  ShardedOptions sharded;
  sharded.shards = 2;
  sharded.stitch_iterations = 0;
  const ShardedPlaceResult out =
      place_sharded(f.model, f.seed, f.shard_of_object, f.partition, sharded,
                    GlobalPlacerOptions{});
  fault::clear_plan();
  // Shard 0 (fault key = shard index, @1 fires its first attempt) fell back:
  // its movables sit exactly at their seed positions.
  ASSERT_TRUE(out.shards[0].fell_back);
  EXPECT_EQ(out.shards[0].failure_code, "place-shard-failed");
  EXPECT_FALSE(out.shards[1].fell_back);
  for (int i = 0; i < 16; ++i) {
    if (f.shard_of_object[i] != 0) continue;
    EXPECT_EQ(out.placement[i].x, f.seed[i].x) << i;
    EXPECT_EQ(out.placement[i].y, f.seed[i].y) << i;
  }
  bool saw = false;
  for (const fault::Degradation& d : fault::degradation_log()) {
    if (d.site == "place.shard") {
      EXPECT_EQ(d.fallback, "vpr-seed");
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
  fault::reset_log();
}

}  // namespace
}  // namespace ppacd::place
