/// \file exec_test.cpp
/// \brief Unit tests for the deterministic parallel execution layer: chunk
/// structure, ordered reduction, nested regions, exception propagation,
/// pool reconfiguration, and the region protocol under churn (back-to-back
/// small regions, reconfiguration racing worker start-up, concurrent
/// issuing threads).
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ppacd::exec {
namespace {

// Restores the entry thread count after each test so the suite's pool state
// does not leak between tests (or into other suites in the same binary).
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = thread_count(); }
  void TearDown() override { set_thread_count(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ExecTest, ChunkCountFor) {
  EXPECT_EQ(detail::chunk_count_for(0, 4), 0u);
  EXPECT_EQ(detail::chunk_count_for(1, 4), 1u);
  EXPECT_EQ(detail::chunk_count_for(4, 4), 1u);
  EXPECT_EQ(detail::chunk_count_for(5, 4), 2u);
  EXPECT_EQ(detail::chunk_count_for(8, 4), 2u);
  EXPECT_EQ(detail::chunk_count_for(9, 4), 3u);
  EXPECT_EQ(detail::chunk_count_for(7, 0), 7u);  // grain 0 acts as 1
  EXPECT_EQ(detail::chunk_count_for(7, kSerialGrain), 1u);
}

TEST_F(ExecTest, ParallelForVisitsEveryIndexOnce) {
  set_thread_count(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, 64, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ExecTest, SerialGrainRunsInline) {
  set_thread_count(8);
  // With kSerialGrain the whole range is one chunk on the caller; no other
  // thread may observe the (unsynchronized) counter mid-flight.
  std::size_t count = 0;
  std::vector<std::size_t> order;
  parallel_for_chunks(0, 1000, kSerialGrain,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        EXPECT_EQ(b, 0u);
                        EXPECT_EQ(e, 1000u);
                        EXPECT_EQ(c, 0u);
                        EXPECT_FALSE(inside_parallel_region());
                        count = e - b;
                        order.push_back(c);
                      });
  EXPECT_EQ(count, 1000u);
  EXPECT_EQ(order.size(), 1u);
}

TEST_F(ExecTest, ReduceIsBitIdenticalAcrossThreadCounts) {
  // Sum a series whose terms differ by many orders of magnitude, so any
  // change in accumulation order changes the rounded bits.
  constexpr std::size_t kN = 20'000;
  auto run = [&](int threads) {
    set_thread_count(threads);
    return parallel_reduce(
        std::size_t{0}, kN, 128, 0.0,
        [](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            acc += 1.0 / (1.0 + static_cast<double>(i) * 1e-3) +
                   std::ldexp(1.0, -static_cast<int>(i % 40));
          }
          return acc;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  for (const int threads : {2, 3, 4, 8}) {
    const double parallel_result = run(threads);
    EXPECT_EQ(serial, parallel_result) << "threads=" << threads;
  }
}

TEST_F(ExecTest, NestedParallelForDoesNotDeadlockAndCoversRange) {
  set_thread_count(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 257;
  std::vector<std::atomic<std::size_t>> inner_sums(kOuter);
  parallel_for(0, kOuter, 1, [&](std::size_t outer) {
    std::size_t local = 0;
    // Nested region: runs inline when the outer chunk landed on a worker,
    // through the pool otherwise. Either way the chunk structure is the same.
    parallel_for(0, kInner, 32, [&](std::size_t inner) { local += inner; });
    inner_sums[outer].store(local, std::memory_order_relaxed);
  });
  const std::size_t expected = kInner * (kInner - 1) / 2;
  for (std::size_t outer = 0; outer < kOuter; ++outer) {
    ASSERT_EQ(inner_sums[outer].load(), expected) << "outer " << outer;
  }
}

TEST_F(ExecTest, ExceptionPropagatesToCaller) {
  // Every failing chunk position at every lane count; the pool must be
  // reusable after each failed region.
  for (const int lanes : {1, 2, 3, 4, 8}) {
    set_thread_count(lanes);
    for (std::size_t failing = 0; failing < 8; ++failing) {
      EXPECT_THROW(parallel_for(0, 8, 1,
                                [&](std::size_t i) {
                                  if (i == failing) {
                                    throw std::runtime_error("chunk failure");
                                  }
                                }),
                   std::runtime_error)
          << "lanes " << lanes << " failing chunk " << failing;
      std::atomic<std::size_t> visited{0};
      parallel_for(0, 100, 8, [&](std::size_t) {
        visited.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(visited.load(), 100u) << "lanes " << lanes;
    }
  }
}

TEST_F(ExecTest, SetThreadCountReconfigures) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3);
  EXPECT_EQ(worker_slots(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1);
  set_thread_count(0);  // clamped
  EXPECT_EQ(thread_count(), 1);
  set_thread_count(5);
  EXPECT_EQ(thread_count(), 5);
  std::atomic<std::size_t> visited{0};
  parallel_for(0, 1'000, 16, [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 1000u);
}

TEST_F(ExecTest, WorkerSlotIsInRangeDuringRegion) {
  set_thread_count(4);
  std::atomic<bool> out_of_range{false};
  parallel_for(0, 4'096, 16, [&](std::size_t) {
    if (this_worker_slot() >= worker_slots()) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
  EXPECT_EQ(this_worker_slot(), 0u);  // calling thread outside a region
}

/// Order-sensitive reduction over `chunks` chunks of 16 items: terms spread
/// over many magnitudes, so any change of fold order changes the bits.
double ordered_sum(std::size_t chunks) {
  return parallel_reduce(
      std::size_t{0}, chunks * 16, 16, 0.0,
      [](std::size_t b, std::size_t e) {
        double acc = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          acc += std::ldexp(1.0 + static_cast<double>(i),
                            -static_cast<int>(i % 53));
        }
        return acc;
      },
      [](double a, double b) { return a + b; });
}

TEST_F(ExecTest, SetThreadCountRightAfterFirstUse) {
  // Reconfiguring joins workers that may not have started running yet; each
  // must still observe the shutdown. Hangs (and fails on ctest's timeout)
  // if a worker samples the pool epoch after the shutdown bumped it.
  for (int round = 0; round < 200; ++round) {
    set_thread_count(2 + round % 7);
    if (round % 3 == 0) {
      std::atomic<std::size_t> visited{0};
      parallel_for(0, 64, 4, [&](std::size_t) {
        visited.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(visited.load(), 64u) << "round " << round;
    }
  }
}

TEST_F(ExecTest, BackToBackSmallRegionsAtEveryLaneCount) {
  // The CG issues thousands of 2-8 chunk regions back to back; the claim
  // protocol must hand out every chunk exactly once each time and leave the
  // ordered fold untouched.
  std::vector<double> serial(9);
  set_thread_count(1);
  for (std::size_t chunks = 2; chunks <= 8; ++chunks) {
    serial[chunks] = ordered_sum(chunks);
  }
  for (const int lanes : {2, 3, 4, 8}) {
    set_thread_count(lanes);
    std::vector<std::atomic<int>> visits(8);
    for (int region = 0; region < 10'000; ++region) {
      const std::size_t chunks = 2 + static_cast<std::size_t>(region) % 7;
      for (std::atomic<int>& v : visits) v.store(0, std::memory_order_relaxed);
      parallel_for(0, chunks, 1, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < chunks; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "lanes " << lanes << " region " << region << " chunk " << i;
      }
      ASSERT_EQ(ordered_sum(chunks), serial[chunks])
          << "lanes " << lanes << " region " << region;
    }
  }
}

TEST_F(ExecTest, TwoThreadsIssueRegionsConcurrently) {
  // One thread owns the pool at a time; the other runs its region inline.
  // Either way each region covers its range once and folds in chunk order.
  set_thread_count(4);
  const double expected = ordered_sum(8);
  auto issue = [expected](std::atomic<int>& failures) {
    for (int region = 0; region < 2'000; ++region) {
      std::atomic<std::size_t> visited{0};
      parallel_for(0, 8, 1, [&](std::size_t) {
        visited.fetch_add(1, std::memory_order_relaxed);
      });
      if (visited.load() != 8u || ordered_sum(8) != expected) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::atomic<int> failures{0};
  std::thread first(issue, std::ref(failures));
  std::thread second(issue, std::ref(failures));
  first.join();
  second.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ppacd::exec
