/// \file observe_test.cpp
/// \brief Flight-recorder contract tests: bounded per-thread buffers with
/// drop counting, serial series numbering, merge order by (stream, series,
/// index, sub), capacity trimming that keeps the highest keys at any split
/// across threads, and — the headline guarantee — a merged event stream that
/// is bit-identical when the full clustered flow runs with 1 thread and
/// with 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/exec.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ppacd::observe {
namespace {

/// Saves and restores the process-wide recorder configuration around each
/// test, and starts every test from an empty, enabled recorder.
class ObserveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_enabled_ = recorder().enabled();
    saved_capacity_ = recorder().capacity();
    recorder().reset();
    recorder().set_enabled(true);
  }
  void TearDown() override {
    recorder().reset();
    recorder().set_enabled(saved_enabled_);
    recorder().set_capacity(saved_capacity_);
  }

 private:
  bool saved_enabled_ = false;
  std::size_t saved_capacity_ = 0;
};

TEST_F(ObserveTest, DisabledRecorderRecordsNothing) {
  recorder().set_enabled(false);
  EXPECT_FALSE(active());
  recorder().record(Stream::kPlaceIter, 0, 0, 0, {1.0});
  recorder().set_enabled(true);
  EXPECT_TRUE(recorder().merged_samples().empty());
}

TEST_F(ObserveTest, SeriesNumbersArePerStreamAndSequential) {
  EXPECT_EQ(recorder().begin_series(Stream::kPlaceIter), 0);
  EXPECT_EQ(recorder().begin_series(Stream::kPlaceIter), 1);
  EXPECT_EQ(recorder().begin_series(Stream::kRouteRound), 0);
  recorder().reset();
  EXPECT_EQ(recorder().begin_series(Stream::kPlaceIter), 0);
}

TEST_F(ObserveTest, ValuesTruncateToFour) {
  recorder().record(Stream::kStaLevel, 0, 0, 0,
                    {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  const std::vector<Sample> samples = recorder().merged_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].count, 4);
  EXPECT_EQ(samples[0].values[3], 4.0);
}

TEST_F(ObserveTest, MergedSamplesSortByKeyNotEmitOrder) {
  // Emit deliberately out of key order from one thread.
  recorder().record(Stream::kRouteRound, 0, 2, 0, {1.0});
  recorder().record(Stream::kPlaceIter, 1, 0, 0, {2.0});
  recorder().record(Stream::kPlaceIter, 0, 5, 1, {3.0});
  recorder().record(Stream::kPlaceIter, 0, 5, 0, {4.0});
  const std::vector<Sample> samples = recorder().merged_samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].values[0], 4.0);  // place.iter s0 i5 sub0
  EXPECT_EQ(samples[1].values[0], 3.0);  // place.iter s0 i5 sub1
  EXPECT_EQ(samples[2].values[0], 2.0);  // place.iter s1
  EXPECT_EQ(samples[3].values[0], 1.0);  // route.round
}

TEST_F(ObserveTest, RingOverwritesOldestAndCountsDrops) {
  recorder().set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    recorder().record(Stream::kPlaceCg, 0, i, 0, {double(i)});
  }
  const std::vector<Sample> samples = recorder().merged_samples();
  ASSERT_EQ(samples.size(), 8u);
  // Ring semantics: the newest keys survive (indices 12..19).
  EXPECT_EQ(samples.front().index, 12);
  EXPECT_EQ(samples.back().index, 19);
  EXPECT_EQ(recorder().dropped(), 12);
  recorder().reset();
  EXPECT_EQ(recorder().dropped(), 0);
  EXPECT_TRUE(recorder().merged_samples().empty());
}

TEST_F(ObserveTest, MergedTrimsToCapacityKeepingHighestKeys) {
  // Two "threads" worth of data can exceed capacity even when each ring
  // fits; the merged snapshot must still be bounded by capacity().
  recorder().set_capacity(16);
  for (int i = 0; i < 16; ++i) {
    recorder().record(Stream::kPlaceCg, 0, i, 0, {double(i)});
  }
  std::thread other([] {
    for (int i = 16; i < 32; ++i) {
      recorder().record(Stream::kPlaceCg, 0, i, 0, {double(i)});
    }
  });
  other.join();
  const std::vector<Sample> samples = recorder().merged_samples();
  ASSERT_EQ(samples.size(), 16u);
  EXPECT_EQ(samples.front().index, 16);
  EXPECT_EQ(samples.back().index, 31);
}

/// Resident set size in KiB, or -1 where /proc/self/status is unavailable.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST_F(ObserveTest, ResetReusesEachThreadsBuffer) {
  // A thread keeps one buffer across reset(), so reset-and-record cycles
  // must not add a buffer (2 MiB at this capacity) per cycle.
  constexpr std::int64_t kCapacity = std::int64_t{1} << 15;
  recorder().set_capacity(static_cast<std::size_t>(kCapacity));
  const long before = resident_kib();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  for (int cycle = 0; cycle < 64; ++cycle) {
    recorder().reset();
    for (std::int64_t i = 0; i < kCapacity; ++i) {
      recorder().record(Stream::kPlaceCg, 0, i, 0, {double(i)});
    }
  }
  EXPECT_LT(resident_kib() - before, 32 * 1024);
}

TEST_F(ObserveTest, FrameStoreBoundedAtKMaxFrames) {
  for (std::size_t i = 0; i < Recorder::kMaxFrames + 5; ++i) {
    recorder().record_frame(Stream::kRouteHeatmap, 0,
                            static_cast<std::int64_t>(i), 2, 2,
                            {1.0, 2.0, 3.0, 4.0});
  }
  const std::vector<Frame> frames = recorder().frames();
  ASSERT_EQ(frames.size(), Recorder::kMaxFrames);
  // Oldest dropped first.
  EXPECT_EQ(frames.front().index, 5);
  EXPECT_EQ(frames.back().index,
            static_cast<std::int64_t>(Recorder::kMaxFrames) + 4);
  EXPECT_EQ(recorder().dropped(), 5);
}

TEST_F(ObserveTest, ToJsonCarriesSchemaAndStreamNames) {
  recorder().record(Stream::kClusterCut, 0, 0, 0, {0.5, 10.0});
  recorder().record_frame(Stream::kStaSlack, 0, 0, 4, 0,
                          {-10.0, 10.0, 1.0, 2.0, 3.0, 4.0});
  const std::string dump = recorder().to_json("unit").dump(0);
  EXPECT_NE(dump.find("\"schema\": \"ppacd-observe-v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"label\": \"unit\""), std::string::npos);
  EXPECT_NE(dump.find("\"cluster.cut\""), std::string::npos);
  EXPECT_NE(dump.find("\"sta.slack\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic merge across threads
// ---------------------------------------------------------------------------

/// Emits keyed samples from a parallel_for at `threads` and returns the
/// merged stream. Keys depend only on the loop index, so the result must be
/// independent of how iterations landed on workers.
std::vector<Sample> emit_from_pool(int threads, int n) {
  const int saved = exec::thread_count();
  exec::set_thread_count(threads);
  recorder().reset();
  const std::int32_t series = recorder().begin_series(Stream::kVprCandidate);
  exec::parallel_for(0, static_cast<std::size_t>(n), 1, [&](std::size_t i) {
    recorder().record(Stream::kVprCandidate, series,
                      static_cast<std::int64_t>(i), 0,
                      {double(i), double(i) * 0.5});
  });
  std::vector<Sample> merged = recorder().merged_samples();
  exec::set_thread_count(saved);
  return merged;
}

void expect_same_stream(const std::vector<Sample>& a,
                        const std::vector<Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream) << i;
    EXPECT_EQ(a[i].series, b[i].series) << i;
    EXPECT_EQ(a[i].index, b[i].index) << i;
    EXPECT_EQ(a[i].sub, b[i].sub) << i;
    ASSERT_EQ(a[i].count, b[i].count) << i;
    for (int v = 0; v < a[i].count; ++v) {
      EXPECT_EQ(a[i].values[v], b[i].values[v]) << i << "." << v;
    }
  }
}

TEST_F(ObserveTest, PoolEmitsMergeIdentical1v8) {
  const std::vector<Sample> serial = emit_from_pool(1, 500);
  const std::vector<Sample> parallel = emit_from_pool(8, 500);
  ASSERT_EQ(serial.size(), 500u);
  expect_same_stream(serial, parallel);
}

/// Records `keys` in order, split into `threads` contiguous slices, each on
/// its own std::thread.
void record_split(const std::vector<Sample>& keys, int threads) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    const std::size_t lo = keys.size() * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(threads);
    const std::size_t hi = keys.size() * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(threads);
    workers.emplace_back([&keys, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        const Sample& k = keys[i];
        recorder().record(static_cast<Stream>(k.stream), k.series, k.index,
                          k.sub, {k.values[0]});
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST_F(ObserveTest, MergeMatchesReferenceAtEverySplit) {
  // Property: whatever the emit order and however it is split across
  // threads, the merge keeps exactly the `capacity` highest keys and counts
  // the rest as dropped. Emit order within a thread is not key order in the
  // flow either (a placer iteration flushes place.cg before place.iter).
  const Stream streams[] = {Stream::kPlaceIter, Stream::kPlaceCg,
                            Stream::kVprCandidate, Stream::kClusterCut};
  std::vector<Sample> keys(960);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i].stream = static_cast<std::int32_t>(streams[i % 4]);
    keys[i].series = static_cast<std::int32_t>(i / 4 % 2);
    keys[i].index = static_cast<std::int64_t>(i / 8);
    keys[i].sub = static_cast<std::int64_t>(i % 3);
    keys[i].count = 1;
    keys[i].values[0] = static_cast<double>(i);
  }
  std::vector<Sample> sorted = keys;
  std::sort(sorted.begin(), sorted.end(), [](const Sample& a, const Sample& b) {
    return std::tie(a.stream, a.series, a.index, a.sub) <
           std::tie(b.stream, b.series, b.index, b.sub);
  });
  for (const std::size_t capacity : {std::size_t{37}, std::size_t{300}}) {
    recorder().set_capacity(capacity);
    const std::vector<Sample> reference(
        sorted.end() - static_cast<std::ptrdiff_t>(capacity), sorted.end());
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      std::vector<Sample> order = keys;
      util::Rng(seed).shuffle(order);
      for (const int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                          << " seed " << seed << " threads "
                                          << threads);
        recorder().reset();
        record_split(order, threads);
        expect_same_stream(recorder().merged_samples(), reference);
        EXPECT_EQ(recorder().dropped(),
                  static_cast<std::int64_t>(keys.size() - capacity));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full-flow bit-identity (the ISSUE acceptance criterion)
// ---------------------------------------------------------------------------

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

struct FlowStream {
  std::vector<Sample> samples;
  std::vector<Frame> frames;
  std::string json;
};

/// Runs the sharded aes flow (V-P&R on, nested solvers exercised, and the
/// place.shard series emitted — this is the clustered flow plus the sharded
/// placement pass, so it covers every stream) plus PPA evaluation with the
/// recorder on, and snapshots the full event stream.
FlowStream record_flow_at(int threads) {
  const int saved = exec::thread_count();
  exec::set_thread_count(threads);
  gen::DesignSpec spec = gen::design_spec("aes");
  spec.target_cells = 600;
  netlist::Netlist nl = gen::generate(lib(), spec);

  flow::FlowOptions options;
  options.clock_period_ps = 550.0;
  options.fc.target_cluster_count = 10;
  options.vpr.min_cluster_instances = 20;
  options.strategy = flow::PlaceStrategy::kSharded;
  options.sharding.shards = 3;

  telemetry::metrics().reset();
  recorder().reset();
  const flow::FlowResult result = flow::try_run(nl, options).value();
  EXPECT_TRUE(
      flow::try_evaluate_ppa(nl, result.place.positions, options).has_value());

  FlowStream stream;
  stream.samples = recorder().merged_samples();
  stream.frames = recorder().frames();
  stream.json = recorder().to_json("aes").dump(0);
  recorder().reset();
  telemetry::metrics().reset();
  exec::set_thread_count(saved);
  return stream;
}

TEST_F(ObserveTest, FlowEventStreamBitIdentical1v8) {
  const FlowStream serial = record_flow_at(1);
  const FlowStream parallel = record_flow_at(8);

  // The flow must actually have emitted: placer iterations, CG residuals,
  // router rounds, STA levels, V-P&R candidates, cluster stats, and the
  // heatmap/histogram frames.
  EXPECT_FALSE(serial.samples.empty());
  EXPECT_FALSE(serial.frames.empty());
  bool seen[static_cast<int>(Stream::kStreamCount)] = {};
  for (const Sample& s : serial.samples) seen[s.stream] = true;
  for (const Frame& f : serial.frames) seen[f.stream] = true;
  for (int s = 0; s < static_cast<int>(Stream::kStreamCount); ++s) {
    EXPECT_TRUE(seen[s]) << "stream " << to_string(static_cast<Stream>(s))
                         << " recorded nothing";
  }

  expect_same_stream(serial.samples, parallel.samples);
  ASSERT_EQ(serial.frames.size(), parallel.frames.size());
  for (std::size_t i = 0; i < serial.frames.size(); ++i) {
    EXPECT_EQ(serial.frames[i].stream, parallel.frames[i].stream) << i;
    EXPECT_EQ(serial.frames[i].series, parallel.frames[i].series) << i;
    EXPECT_EQ(serial.frames[i].index, parallel.frames[i].index) << i;
    EXPECT_EQ(serial.frames[i].values, parallel.frames[i].values) << i;
  }
  // Belt and braces: the serialized export (what --observe writes and what
  // the dashboard reads) is byte-identical too.
  EXPECT_EQ(serial.json, parallel.json);
}

}  // namespace
}  // namespace ppacd::observe
