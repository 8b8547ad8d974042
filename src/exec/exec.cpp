#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace ppacd::exec {

namespace {

/// Lane identity of the current thread: 0 = any non-pool thread, 1..N-1 = a
/// pool worker. Workers set it once at startup.
thread_local std::size_t t_lane = 0;
/// True while this thread executes a region chunk — on workers AND on the
/// caller (which drains as lane 0). Nested run_chunks calls run inline then.
thread_local bool t_in_region = false;

/// Pause iterations an idle lane spins before it parks: ~18 us on a 2.1 GHz
/// Xeon (~18 ns per pause), many times the sub-microsecond folds between CG
/// regions. Picked by the spin sweep in EXPERIMENTS.md ("Exec pool").
constexpr int kSpinIters = 1 << 10;

/// Spins up to kSpinIters pauses for `done()`; returns its last value.
template <typename Done>
bool spin_until(Done done) {
  for (int i = 0; i < kSpinIters; ++i) {
    if (done()) return true;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return done();
}

/// One parallel region; lives on the issuing caller's stack.
struct Region {
  const detail::ChunkFnRef* fn;
  std::size_t chunks;
  std::size_t lanes;
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  ///< first chunk exception (written once)
};

/// Lane l's claim counter: its k-th claim is chunk l + k * lanes.
struct alignas(64) Stripe {
  std::atomic<std::size_t> next{0};
};

struct Pool {
  std::atomic<int> lanes{0};
  std::unique_ptr<Stripe[]> stripes;
  std::atomic<bool> owned{false};  ///< a caller is issuing a region

  // Written by the caller per region (`parked`: by parking workers).
  alignas(64) std::atomic<std::uint32_t> epoch{0};  ///< bumps per publish
  std::atomic<Region*> region{nullptr};
  std::atomic<std::size_t> width{0};  ///< lanes owning a chunk of `region`
  std::atomic<int> parked{0};         ///< workers blocked in epoch.wait()
  std::atomic<bool> stop{false};

  // Written by every worker that enters or leaves a region.
  alignas(64) std::atomic<int> busy{0};  ///< workers that may read `region`
  std::atomic<bool> caller_parked{false};

  std::vector<std::thread> workers;  ///< last: they use every member above

  Pool();
  ~Pool();  ///< joins the workers (a joinable std::thread would terminate)
  Pool(const Pool&) = delete;  // workers hold its address
  Pool& operator=(const Pool&) = delete;
};

/// Runs claimable chunks of `r` as `lane`: its own stripe first, then the
/// other lanes' stripes in ring order. Returns once every chunk is claimed.
void drain(Pool& pool, Region& r, std::size_t lane) {
  std::int64_t steals = 0;
  t_in_region = true;
  for (std::size_t i = 0; i < r.lanes; ++i) {
    const std::size_t owner = (lane + i) % r.lanes;
    std::atomic<std::size_t>& next = pool.stripes[owner].next;
    // Load before claiming, so thieves leave an exhausted stripe shared.
    while (owner + next.load(std::memory_order_relaxed) * r.lanes < r.chunks) {
      const std::size_t c =
          owner + next.fetch_add(1, std::memory_order_relaxed) * r.lanes;
      if (c >= r.chunks) break;
      if (i != 0) ++steals;
      if (r.failed.load(std::memory_order_relaxed)) continue;
      try {
        (*r.fn)(c);
      } catch (...) {
        // First failure wins; later chunks are skipped so the region drains
        // quickly. The caller rethrows after completion.
        if (!r.failed.exchange(true, std::memory_order_acq_rel)) {
          r.error = std::current_exception();
        }
      }
    }
  }
  t_in_region = false;
  if (steals > 0) PPACD_COUNT("exec.steal.count", steals);
}

/// `seen` is the epoch at spawn: a shutdown before this thread runs counts.
void worker_main(Pool& pool, std::size_t lane, std::uint32_t seen) {
  t_lane = lane;
  while (true) {
    if (!spin_until([&] {
          return pool.epoch.load(std::memory_order_relaxed) != seen;
        })) {
      pool.parked.fetch_add(1);
      pool.epoch.wait(seen);
      pool.parked.fetch_sub(1, std::memory_order_relaxed);
    }
    seen = pool.epoch.load(std::memory_order_acquire);
    if (pool.stop.load(std::memory_order_acquire)) return;
    // A lane that owns no chunk stays out; the owners drain the region.
    if (lane >= pool.width.load(std::memory_order_relaxed)) continue;
    // Announce before reading `region`: the caller clears it, then waits for
    // busy == 0, so (all seq_cst) it sees this or this load sees nullptr.
    pool.busy.fetch_add(1);
    if (Region* r = pool.region.load()) drain(pool, *r, lane);
    if (pool.busy.fetch_sub(1) == 1 && pool.caller_parked.load()) {
      pool.busy.notify_all();
    }
  }
}

/// Blocks until no worker can still read the current region.
void wait_for_workers(Pool& pool) {
  if (spin_until([&pool] { return pool.busy.load() == 0; })) return;
  pool.caller_parked.store(true);
  for (int busy = pool.busy.load(); busy != 0; busy = pool.busy.load()) {
    pool.busy.wait(busy);
  }
  pool.caller_parked.store(false, std::memory_order_relaxed);
}

void stop_workers(Pool& pool) {
  pool.stop.store(true, std::memory_order_release);
  pool.epoch.fetch_add(1);
  pool.epoch.notify_all();
  for (std::thread& worker : pool.workers) worker.join();
  pool.workers.clear();
  pool.stop.store(false, std::memory_order_relaxed);
}

/// Replaces the workers with `lanes - 1` new ones; owns the pool meanwhile.
void configure(Pool& pool, int lanes) {
  PPACD_CHECK(!t_in_region, "pool reconfigured from inside a parallel region");
  while (pool.owned.exchange(true, std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  stop_workers(pool);
  pool.stripes = std::make_unique<Stripe[]>(static_cast<std::size_t>(lanes));
  const std::uint32_t epoch = pool.epoch.load(std::memory_order_relaxed);
  pool.workers.reserve(static_cast<std::size_t>(lanes) - 1);
  for (int lane = 1; lane < lanes; ++lane) {
    pool.workers.emplace_back(worker_main, std::ref(pool),
                              static_cast<std::size_t>(lane), epoch);
  }
  pool.lanes.store(lanes, std::memory_order_relaxed);
  pool.owned.store(false, std::memory_order_release);
  PPACD_LOG_DEBUG("exec") << "pool configured with " << lanes << " lanes";
}

int env_thread_count() {
  if (const char* env = std::getenv("PPACD_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
    PPACD_LOG_WARN("exec") << "ignoring PPACD_THREADS=\"" << env << "\"";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Pool::Pool() { configure(*this, env_thread_count()); }

Pool::~Pool() { stop_workers(*this); }

/// Lazily created on first use; set_thread_count() reconfigures it.
Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

int thread_count() { return pool().lanes.load(std::memory_order_relaxed); }

void set_thread_count(int count) {
  Pool& state = pool();
  count = std::max(count, 1);
  if (state.lanes.load(std::memory_order_relaxed) == count) return;
  configure(state, count);
}

std::size_t worker_slots() { return static_cast<std::size_t>(thread_count()); }

std::size_t this_worker_slot() { return t_lane; }

bool inside_parallel_region() { return t_in_region; }

namespace detail {

void run_chunks(std::size_t chunk_count, const ChunkFnRef& chunk_fn) {
  if (chunk_count == 0) return;
  Pool& state = pool();
  PPACD_COUNT("exec.tasks.executed", chunk_count);
  // Nested region (issued from inside a chunk), serial pool, or a pool busy
  // with another thread's region: run inline, in chunk order — the chunk
  // structure is identical, so results are too.
  if (t_in_region || state.lanes.load(std::memory_order_relaxed) <= 1 ||
      state.owned.exchange(true, std::memory_order_acquire)) {
    for (std::size_t c = 0; c < chunk_count; ++c) chunk_fn(c);
    return;
  }

  const auto lanes =
      static_cast<std::size_t>(state.lanes.load(std::memory_order_relaxed));
  Region region{&chunk_fn, chunk_count, lanes};
  for (std::size_t l = 0; l < lanes; ++l) {
    state.stripes[l].next.store(0, std::memory_order_relaxed);
  }
  state.width.store(std::min(lanes, chunk_count), std::memory_order_relaxed);
  state.region.store(&region);
  state.epoch.fetch_add(1);
  if (state.parked.load() > 0) state.epoch.notify_all();

  drain(state, region, /*lane=*/0);  // the caller participates as lane 0
  // Every chunk is claimed, and claimants stay in `busy` until their chunks
  // finish: busy == 0 after the clear means done, frame no longer shared.
  state.region.store(nullptr);
  wait_for_workers(state);
  state.owned.store(false, std::memory_order_release);
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace detail

}  // namespace ppacd::exec
