/// \file determinism_test.cpp
/// \brief End-to-end enforcement of the exec determinism contract: the full
/// flow (clustering, V-P&R shape sweeps, placement, routing, CTS, STA) must
/// produce bit-identical results with 1 thread and with 8, on more than one
/// design and through every placement strategy.
///
/// The comparisons cover placements, PPA numbers, and the run's metric
/// snapshot. Every counter but `exec.steal.count` (chunks a lane claimed
/// from another lane, timing dependent by design; DESIGN.md §10) must read
/// the same at any lane count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "observe/observe.hpp"
#include "route/bucket_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "util/simd.hpp"

namespace ppacd::flow {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

// Pinned by the golden-hash fixtures below; regenerate by running this test
// and copying the hash printed on mismatch.
//
// History: the clustered hash was re-pinned when the clustering kernels moved
// from unordered_map rating/gain tables to epoch-stamped dense scratch — the
// scratch iterates keys in first-touch order instead of stdlib hash order,
// which changes equal-rating tie-breaks (deterministically). The default-flow
// hash was unaffected: the CSR/scratch conversions preserve floating-point
// accumulation order everywhere else.
//
// Both hashes were re-pinned for the SIMD/bandwidth pass (DESIGN.md §15): the
// placer's CG reductions moved to the fixed 4-lane accumulation order of
// util::simd, which changes dot-product bit patterns (deterministically —
// the new order is identical for SIMD and scalar dispatch, for any thread
// count). The router bucket-queue, STA lane-SoA sweeps, and ml CSR batch
// refactors in the same pass were each verified bit-neutral: the flow hashes
// below were unchanged before and after every one of them.
constexpr std::uint64_t kGoldenClusteredHash = 0xb0c19e059d62a9f4ULL;
constexpr std::uint64_t kGoldenDefaultHash = 0xfd23903d85389bc2ULL;
// Sharded flow (DESIGN.md §16): shard membership, extraction, per-shard
// solves, and the stitch are all pure functions of (model, seed, shard
// count), so each shard count pins its own hash. shards=1 differs from the
// clustered golden by construction: the sharded flow solves the flat model
// through the shard path (one region + stitch) instead of the fenced
// incremental pass.
constexpr std::uint64_t kGoldenSharded1Hash = 0xbe8dd0762a2344e5ULL;
constexpr std::uint64_t kGoldenShardedNHash = 0xf1d35026dabbbbf5ULL;
// The goldens above run the OpenROAD-like tool with detailed placement and
// timing optimization off. These cover the Innovus-like fences of the seeded
// placement, and the repair stages (detailed placement + timing
// optimization) after the flat and seeded placements.
constexpr std::uint64_t kGoldenInnovusHash = 0x871f8a16f2e8b481ULL;
constexpr std::uint64_t kGoldenFlatRepairHash = 0x9a60690597ae7f0dULL;
constexpr std::uint64_t kGoldenSeededRepairHash = 0xa25ad19208afa532ULL;

struct FlowSnapshot {
  std::vector<geom::Point> positions;
  double hpwl_um = 0.0;
  int cluster_count = 0;
  int shaped_clusters = 0;
  double rwl_um = 0.0;
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  double power_w = 0.0;
  double clock_skew_ps = 0.0;
  int route_overflow_edges = 0;
  std::int64_t shapes_evaluated = 0;  // deterministic counter
  std::string metrics;  ///< metric snapshot without exec.steal.count
};

void expect_identical(const FlowSnapshot& serial, const FlowSnapshot& parallel) {
  ASSERT_EQ(serial.positions.size(), parallel.positions.size());
  for (std::size_t i = 0; i < serial.positions.size(); ++i) {
    ASSERT_EQ(serial.positions[i].x, parallel.positions[i].x) << "cell " << i;
    ASSERT_EQ(serial.positions[i].y, parallel.positions[i].y) << "cell " << i;
  }
  EXPECT_EQ(serial.hpwl_um, parallel.hpwl_um);
  EXPECT_EQ(serial.cluster_count, parallel.cluster_count);
  EXPECT_EQ(serial.shaped_clusters, parallel.shaped_clusters);
  EXPECT_EQ(serial.rwl_um, parallel.rwl_um);
  EXPECT_EQ(serial.wns_ps, parallel.wns_ps);
  EXPECT_EQ(serial.tns_ns, parallel.tns_ns);
  EXPECT_EQ(serial.power_w, parallel.power_w);
  EXPECT_EQ(serial.clock_skew_ps, parallel.clock_skew_ps);
  EXPECT_EQ(serial.route_overflow_edges, parallel.route_overflow_edges);
  EXPECT_EQ(serial.shapes_evaluated, parallel.shapes_evaluated);
  EXPECT_EQ(serial.metrics, parallel.metrics);
}

/// The process metric snapshot as JSON text, minus exec.steal.count.
std::string lane_independent_metrics() {
  const telemetry::Json snapshot = telemetry::metrics().to_json();
  telemetry::Json kept = telemetry::Json::object();
  for (const auto& [kind, values] : snapshot.members()) {
    telemetry::Json group = telemetry::Json::object();
    for (const auto& [name, value] : values.members()) {
      if (name != "exec.steal.count") group.set(name, value);
    }
    kept.set(kind, std::move(group));
  }
  return kept.dump();
}

/// Runs one flow configuration at `threads` on a freshly generated design
/// (try_run mutates the netlist, so every run starts from the generator).
/// The sharded strategy uses 4 shards; `configure`, when set, edits the
/// options last. Metrics are reset before the pool is sized, so the snapshot
/// holds everything the run records, as a flow_cli report does.
FlowSnapshot run_at(int threads, const char* design, int cells,
                    PlaceStrategy strategy, bool enable_vpr,
                    void (*configure)(FlowOptions&) = nullptr) {
  telemetry::metrics().reset();
  exec::set_thread_count(threads);
  gen::DesignSpec spec = gen::design_spec(design);
  spec.target_cells = cells;
  netlist::Netlist nl = gen::generate(lib(), spec);

  FlowOptions options;
  options.strategy = strategy;
  options.clock_period_ps = 550.0;
  options.fc.target_cluster_count = 10;
  options.vpr.min_cluster_instances = enable_vpr ? 20 : (1 << 20);
  options.sharding.shards = 4;
  if (configure != nullptr) configure(options);

  const FlowResult result = try_run(nl, options).value();
  const PpaOutcome ppa =
      try_evaluate_ppa(nl, result.place.positions, options).value();

  FlowSnapshot snap;
  snap.positions = result.place.positions;
  snap.hpwl_um = result.place.hpwl_um;
  snap.cluster_count = result.place.cluster_count;
  snap.shaped_clusters = result.place.shaped_clusters;
  snap.rwl_um = ppa.rwl_um;
  snap.wns_ps = ppa.wns_ps;
  snap.tns_ns = ppa.tns_ns;
  snap.power_w = ppa.power_w;
  snap.clock_skew_ps = ppa.clock_skew_ps;
  snap.route_overflow_edges = ppa.route_overflow_edges;
  snap.shapes_evaluated =
      telemetry::metrics().counter("vpr.shapes.evaluated").value();
  snap.metrics = lane_independent_metrics();
  return snap;
}

void one_shard(FlowOptions& options) { options.sharding.shards = 1; }

void innovus(FlowOptions& options) { options.tool = Tool::kInnovusLike; }

void repair(FlowOptions& options) {
  options.detailed_placement = true;
  options.timing_optimization = true;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = exec::thread_count(); }
  void TearDown() override {
    exec::set_thread_count(saved_threads_);
    telemetry::metrics().reset();
    fault::clear_plan();
    fault::reset_log();
  }
  int saved_threads_ = 1;
};

TEST_F(DeterminismTest, ClusteredFlowWithVprBitIdentical1v8) {
  // V-P&R enabled: exercises the nested cluster x shape-candidate region,
  // the placer solves inside score_virtual_die, and the batched router.
  const FlowSnapshot serial = run_at(1, "aes", 600, PlaceStrategy::kSeeded,
                                     /*enable_vpr=*/true);
  EXPECT_GT(serial.shapes_evaluated, 0);
  const FlowSnapshot parallel = run_at(8, "aes", 600, PlaceStrategy::kSeeded,
                                       /*enable_vpr=*/true);
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, DefaultFlowSecondDesignBitIdentical1v8) {
  // Second design + flat entry point: flat quadratic placement, routing,
  // CTS, and level-parallel STA with no clustering in the loop.
  const FlowSnapshot serial = run_at(1, "jpeg", 500, PlaceStrategy::kFlat,
                                     /*enable_vpr=*/false);
  const FlowSnapshot parallel = run_at(8, "jpeg", 500, PlaceStrategy::kFlat,
                                       /*enable_vpr=*/false);
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, ShardedFlowBitIdentical1v8) {
  // The sharded flow's per-shard solves run under exec::parallel_for, so this
  // is the direct test of the sharding determinism contract: extraction,
  // shard solves, merge, and stitch must not depend on thread count. Each
  // lane count claims chunks in its own order (lane l owns chunks l, l+L,
  // ... and steals the rest), so 2, 3 and 4 lanes are checked as well as 8.
  const FlowSnapshot serial = run_at(1, "aes", 600, PlaceStrategy::kSharded,
                                     /*enable_vpr=*/true);
  for (const int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const FlowSnapshot parallel = run_at(threads, "aes", 600,
                                         PlaceStrategy::kSharded,
                                         /*enable_vpr=*/true);
    expect_identical(serial, parallel);
  }
}

// ---------------------------------------------------------------------------
// Determinism under fault injection
// ---------------------------------------------------------------------------
//
// Faults fire as a pure function of (plan seed, site, logical key, attempt),
// never of dynamic hit order, and degradations are recorded from serial
// contexts in a deterministic order — so an injected, degraded run must be
// just as bit-identical across thread counts as a clean one.

struct FaultedSnapshot {
  FlowSnapshot flow;
  std::vector<fault::Degradation> degradations;
};

FaultedSnapshot run_faulted_at(int threads, const char* plan_spec) {
  auto plan = fault::parse_plan(plan_spec);
  EXPECT_TRUE(plan.has_value()) << plan_spec;
  fault::reset_log();
  fault::set_plan(plan.value());
  FaultedSnapshot snap;
  snap.flow = run_at(threads, "aes", 600, PlaceStrategy::kSeeded,
                     /*enable_vpr=*/true);
  snap.degradations = fault::degradation_log();
  fault::clear_plan();
  return snap;
}

TEST_F(DeterminismTest, FaultedClusteredFlowBitIdentical1v8) {
  const char* plan =
      "seed=7;vpr.shape_eval=error%0.5;route.maze=error%0.2;"
      "sta.arrival=poison";
  const FaultedSnapshot serial = run_faulted_at(1, plan);
  const FaultedSnapshot parallel = run_faulted_at(8, plan);
  expect_identical(serial.flow, parallel.flow);
  // The degradation record — what fell back, why, in what order — must be
  // identical too, not just the numeric outcome.
  ASSERT_EQ(serial.degradations.size(), parallel.degradations.size());
  EXPECT_FALSE(serial.degradations.empty());
  for (std::size_t i = 0; i < serial.degradations.size(); ++i) {
    EXPECT_TRUE(serial.degradations[i] == parallel.degradations[i])
        << "degradation " << i << ": " << serial.degradations[i].site
        << " vs " << parallel.degradations[i].site;
  }
}

// ---------------------------------------------------------------------------
// Golden flow-result hashes
// ---------------------------------------------------------------------------
//
// The 1-vs-8-thread tests above prove thread-count invariance but would not
// notice a refactor that changes the answer *identically* at every thread
// count. The fixtures below pin the serialized flow result (every placement
// coordinate bit plus the PPA scalars) to a constant, so data-layout and perf
// PRs provably change zero output bits. If an intentional algorithmic change
// moves the result, the failure message prints the new hash to pin.

/// FNV-1a over raw bytes; endian/width-stable for the fixed g++/x86-64 CI
/// toolchain this fixture targets.
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t snapshot_hash(const FlowSnapshot& snap) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const geom::Point& p : snap.positions) {
    hash = fnv1a(&p.x, sizeof(p.x), hash);
    hash = fnv1a(&p.y, sizeof(p.y), hash);
  }
  const double scalars[] = {snap.hpwl_um, snap.rwl_um,   snap.wns_ps,
                            snap.tns_ns,  snap.power_w,  snap.clock_skew_ps};
  hash = fnv1a(scalars, sizeof(scalars), hash);
  const std::int64_t ints[] = {snap.cluster_count, snap.shaped_clusters,
                               snap.route_overflow_edges,
                               snap.shapes_evaluated};
  return fnv1a(ints, sizeof(ints), hash);
}

TEST_F(DeterminismTest, GoldenClusteredFlowHashPinned) {
  const FlowSnapshot snap = run_at(1, "aes", 600, PlaceStrategy::kSeeded,
                                   /*enable_vpr=*/true);
  EXPECT_EQ(snapshot_hash(snap), kGoldenClusteredHash)
      << "clustered flow output changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(snap);
}

TEST_F(DeterminismTest, GoldenDefaultFlowHashPinned) {
  const FlowSnapshot snap = run_at(1, "jpeg", 500, PlaceStrategy::kFlat,
                                   /*enable_vpr=*/false);
  EXPECT_EQ(snapshot_hash(snap), kGoldenDefaultHash)
      << "default flow output changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(snap);
}

TEST_F(DeterminismTest, GoldenInnovusFlowHashPinned) {
  const FlowSnapshot snap = run_at(1, "aes", 600, PlaceStrategy::kSeeded,
                                   /*enable_vpr=*/true, innovus);
  EXPECT_EQ(snapshot_hash(snap), kGoldenInnovusHash)
      << "Innovus-like flow output changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(snap);
}

TEST_F(DeterminismTest, GoldenRepairFlowHashesPinned) {
  const FlowSnapshot flat = run_at(1, "jpeg", 500, PlaceStrategy::kFlat,
                                   /*enable_vpr=*/false, repair);
  EXPECT_EQ(snapshot_hash(flat), kGoldenFlatRepairHash)
      << "flat flow with repair changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(flat);
  const FlowSnapshot seeded = run_at(1, "aes", 600, PlaceStrategy::kSeeded,
                                     /*enable_vpr=*/false, repair);
  EXPECT_EQ(snapshot_hash(seeded), kGoldenSeededRepairHash)
      << "seeded flow with repair changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(seeded);
}

TEST_F(DeterminismTest, GoldenShardedFlowHashesPinned) {
  // shards=1 and shards=4 are distinct algorithms (different region systems
  // and boundary terminals), so each pins its own golden. Together with the
  // 1-vs-8 test above this guarantees the shard decomposition depends only on
  // (model, seed, shard count) — never thread count or iteration order.
  const FlowSnapshot one = run_at(1, "aes", 600, PlaceStrategy::kSharded,
                                  /*enable_vpr=*/true, one_shard);
  EXPECT_EQ(snapshot_hash(one), kGoldenSharded1Hash)
      << "sharded flow (shards=1) output changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(one);
  const FlowSnapshot many = run_at(1, "aes", 600, PlaceStrategy::kSharded,
                                   /*enable_vpr=*/true);
  EXPECT_EQ(snapshot_hash(many), kGoldenShardedNHash)
      << "sharded flow (shards=4) output changed; if intentional, re-pin to 0x"
      << std::hex << snapshot_hash(many);
}

// The flight recorder is write-only for the solvers (DESIGN.md section 13):
// turning it on must not move a single output bit, so the same golden hashes
// hold with the recorder enabled. A failure here means an instrumentation
// block leaked state back into a hot loop.
TEST_F(DeterminismTest, GoldenHashesUnchangedWithObserveEnabled) {
  const bool saved = observe::recorder().enabled();
  observe::recorder().set_enabled(true);
  observe::recorder().reset();
  const FlowSnapshot clustered = run_at(1, "aes", 600, PlaceStrategy::kSeeded,
                                        /*enable_vpr=*/true);
  EXPECT_EQ(snapshot_hash(clustered), kGoldenClusteredHash)
      << "observe instrumentation changed the clustered flow output";
  const FlowSnapshot flat = run_at(1, "jpeg", 500, PlaceStrategy::kFlat,
                                   /*enable_vpr=*/false);
  EXPECT_EQ(snapshot_hash(flat), kGoldenDefaultHash)
      << "observe instrumentation changed the default flow output";
  EXPECT_FALSE(observe::recorder().merged_samples().empty())
      << "recorder was on but nothing was recorded";
  observe::recorder().reset();
  observe::recorder().set_enabled(saved);
}

// ---------------------------------------------------------------------------
// SIMD kernel bit-identity (DESIGN.md §15)
// ---------------------------------------------------------------------------
//
// util/simd.hpp always compiles the scalar reference path, so one binary can
// cross-check the dispatched kernels (SSE2 when PPACD_SIMD is on, scalar
// aliases otherwise) against the numeric ground truth. The comparisons are on
// raw bit patterns, not tolerances: the contract is bit-identity, which is
// what lets the flow goldens above hold across PPACD_SIMD=ON/OFF builds.

/// Deterministic pseudo-random doubles in [-scale/2, scale/2] (LCG; no
/// std::random so values are identical across stdlib versions).
std::vector<double> lcg_doubles(std::size_t n, std::uint64_t seed,
                                double scale) {
  std::vector<double> out(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    out[i] = scale * (static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5);
  }
  return out;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  // Empty vectors may hold null data(), which memcmp must not receive.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Lengths covering the empty case, pure scalar tails, exact lane multiples,
/// and vector bodies with every tail remainder.
const std::size_t kSimdLens[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 257};

TEST(SimdKernelsTest, DotBitIdenticalToScalarReference) {
  for (const std::size_t n : kSimdLens) {
    const auto a = lcg_doubles(n, 0x1111 + n, 3.0);
    const auto b = lcg_doubles(n, 0x2222 + n, 2.0);
    EXPECT_EQ(bits(util::simd::dot(a.data(), b.data(), n)),
              bits(util::simd::dot_scalar(a.data(), b.data(), n)))
        << "n=" << n;
  }
}

TEST(SimdKernelsTest, CgUpdateBitIdenticalToScalarReference) {
  for (const std::size_t n : kSimdLens) {
    const auto p = lcg_doubles(n, 0x3333 + n, 1.0);
    const auto ap = lcg_doubles(n, 0x4444 + n, 4.0);
    auto x1 = lcg_doubles(n, 0x5555 + n, 10.0);
    auto r1 = lcg_doubles(n, 0x6666 + n, 0.5);
    auto x2 = x1;
    auto r2 = r1;
    util::simd::cg_update(x1.data(), r1.data(), p.data(), ap.data(), 0.37, n);
    util::simd::cg_update_scalar(x2.data(), r2.data(), p.data(), ap.data(),
                                 0.37, n);
    EXPECT_TRUE(same_bits(x1, x2)) << "n=" << n;
    EXPECT_TRUE(same_bits(r1, r2)) << "n=" << n;
  }
}

TEST(SimdKernelsTest, AxpyXpbyAddBitIdenticalToScalarReference) {
  for (const std::size_t n : kSimdLens) {
    const auto src = lcg_doubles(n, 0x7777 + n, 2.0);
    auto a1 = lcg_doubles(n, 0x8888 + n, 5.0);
    auto a2 = a1;
    util::simd::axpy(a1.data(), -1.25, src.data(), n);
    util::simd::axpy_scalar(a2.data(), -1.25, src.data(), n);
    EXPECT_TRUE(same_bits(a1, a2)) << "axpy n=" << n;

    auto p1 = lcg_doubles(n, 0x9999 + n, 5.0);
    auto p2 = p1;
    util::simd::xpby(p1.data(), src.data(), 0.81, n);
    util::simd::xpby_scalar(p2.data(), src.data(), 0.81, n);
    EXPECT_TRUE(same_bits(p1, p2)) << "xpby n=" << n;

    auto d1 = lcg_doubles(n, 0xaaaa + n, 5.0);
    auto d2 = d1;
    util::simd::add(d1.data(), src.data(), n);
    util::simd::add_scalar(d2.data(), src.data(), n);
    EXPECT_TRUE(same_bits(d1, d2)) << "add n=" << n;
  }
}

TEST(SimdKernelsTest, JacobiBitIdenticalIncludingNonPositiveDiagonal) {
  for (const std::size_t n : kSimdLens) {
    const auto in = lcg_doubles(n, 0xbbbb + n, 6.0);
    // Mix of positive, negative, and exactly-zero diagonal entries so both
    // sides of the d > 0 select are exercised in vector and tail positions.
    auto diag = lcg_doubles(n, 0xcccc + n, 2.0);
    for (std::size_t i = 0; i < n; i += 5) diag[i] = 0.0;
    std::vector<double> out1(n);
    std::vector<double> out2(n);
    util::simd::jacobi(out1.data(), in.data(), diag.data(), n);
    util::simd::jacobi_scalar(out2.data(), in.data(), diag.data(), n);
    EXPECT_TRUE(same_bits(out1, out2)) << "n=" << n;
  }
}

TEST(SimdKernelsTest, CsrRowBitIdenticalToScalarReference) {
  const auto x = lcg_doubles(512, 0xdddd, 8.0);
  for (const std::size_t len : kSimdLens) {
    const auto w = lcg_doubles(len, 0xeeee + len, 1.5);
    std::vector<std::int32_t> c(len);
    std::uint64_t s = 0xffff + len;
    for (std::size_t i = 0; i < len; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      c[i] = static_cast<std::int32_t>(s % x.size());
    }
    EXPECT_EQ(bits(util::simd::csr_row(2.5, w.data(), c.data(), x.data(), len)),
              bits(util::simd::csr_row_scalar(2.5, w.data(), c.data(), x.data(),
                                              len)))
        << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// Router bucket queue vs. binary heap pop-order equivalence
// ---------------------------------------------------------------------------
//
// The maze router's BucketQueue claims pop-order identity with the
// std::priority_queue it replaced (bucket_queue.hpp). This drives both with
// the same Dijkstra-shaped workload — monotone pushes with edge costs
// >= kMinEdgeCost, duplicate distances, and stale entries — and requires the
// two pop sequences to match entry for entry.
TEST(BucketQueueTest, PopOrderMatchesBinaryHeapOnMonotoneWorkload) {
  using Entry = route::BucketQueue::Entry;
  route::BucketQueue bq;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;

  bq.begin();
  std::uint64_t s = 0x5eed;
  auto rnd = [&s]() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s;
  };
  // Seed a few sources at distance 0, then interleave pops with relaxations
  // pushing d + cost, cost in [1, 4); some pushes reuse the exact distance
  // and node of an earlier one to model stale heap entries.
  for (std::int32_t node = 0; node < 4; ++node) {
    bq.push(0.0, node);
    heap.emplace(0.0, node);
  }
  std::vector<Entry> bq_order;
  std::vector<Entry> heap_order;
  Entry e;
  while (bq.pop(e)) {
    bq_order.push_back(e);
    ASSERT_FALSE(heap.empty());
    heap_order.push_back(heap.top());
    heap.pop();
    if (bq_order.size() < 400) {
      const int fanout = 1 + static_cast<int>(rnd() % 2);
      for (int k = 0; k < fanout; ++k) {
        const double cost =
            route::BucketQueue::kMinEdgeCost +
            3.0 * (static_cast<double>(rnd() >> 11) / 9007199254740992.0);
        const double nd = e.first + cost;
        const auto node = static_cast<std::int32_t>(rnd() % 1024);
        bq.push(nd, node);
        heap.emplace(nd, node);
        if (k == 0 && (rnd() & 1) != 0) {  // duplicate == stale entry
          bq.push(nd, node);
          heap.emplace(nd, node);
        }
      }
    }
  }
  EXPECT_TRUE(heap.empty());
  ASSERT_GT(bq_order.size(), 100u);
  ASSERT_EQ(bq_order.size(), heap_order.size());
  for (std::size_t i = 0; i < bq_order.size(); ++i) {
    EXPECT_EQ(bits(bq_order[i].first), bits(heap_order[i].first)) << "pop " << i;
    EXPECT_EQ(bq_order[i].second, heap_order[i].second) << "pop " << i;
  }
}

// A live bucket that wraps onto a retired bucket's ring slot must survive a
// later ring growth. Bucket 0 retires, bucket 64 then shares its slot in the
// initial 64-bucket ring, and a push at distance 100 doubles the ring. The
// move must file bucket 64's entry under 64, not under the retired 0 — or it
// pops after bucket 100, once cur_ wraps round to the stale slot.
TEST(BucketQueueTest, WrapThenGrowKeepsPopOrder) {
  using Entry = route::BucketQueue::Entry;
  route::BucketQueue bq;
  bq.begin();
  std::vector<Entry> popped;
  Entry e;
  bq.push(0.5, 0);
  ASSERT_TRUE(bq.pop(e));
  popped.push_back(e);
  bq.push(1.5, 1);
  ASSERT_TRUE(bq.pop(e));  // retires bucket 0; bucket 1 drains
  popped.push_back(e);
  bq.push(64.5, 2);   // bucket 64: same slot as the retired bucket 0
  bq.push(100.5, 3);  // span 100 > 64: grows the ring to 128
  while (bq.pop(e)) popped.push_back(e);
  const std::vector<Entry> expected = {
      {0.5, 0}, {1.5, 1}, {64.5, 2}, {100.5, 3}};
  EXPECT_EQ(popped, expected);
}

}  // namespace
}  // namespace ppacd::flow
