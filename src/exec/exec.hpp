/// \file exec.hpp
/// \brief Deterministic parallel execution: a fixed-size work-stealing thread
/// pool plus `parallel_for` / `parallel_reduce` helpers used by the flow's
/// hot paths (V-P&R shape sweeps, quadratic placement, routing, STA).
///
/// Determinism contract (see DESIGN.md "Parallel execution"):
///   * Work is split into chunks whose boundaries depend ONLY on the range
///     and the `grain` argument — never on the thread count or on runtime
///     timing. Callers pick a fixed grain per call site.
///   * `parallel_reduce` combines chunk results in ascending chunk order on
///     the calling thread, so floating-point accumulation order — and thus
///     the bit pattern of the result — is identical for any pool size,
///     including the serial (1-thread) configuration.
///   * Any randomness inside a chunk must derive from an explicit seed plus
///     the chunk/task index (util::Rng), never from a thread id.
/// Under this contract `--threads 1` and `--threads N` produce bit-identical
/// flow results; tests/determinism_test.cpp enforces it end to end.
///
/// Pool model: one process-wide lazily-created pool of `thread_count() - 1`
/// worker threads; the calling thread participates as lane 0. Issuing a
/// region allocates nothing and takes no lock: its descriptor lives on the
/// caller's stack, and with L lanes, lane l claims chunks l, l+L, l+2L, ...
/// from its own cache-line-padded atomic counter (its stripe), so the same
/// chunk index lands on the same lane region after region and per-chunk
/// scratch stays in that core's cache. A lane whose stripe is exhausted
/// claims from the other lanes' stripes; `exec.steal.count` counts those
/// chunks. Idle workers spin briefly on the region epoch, then park on
/// std::atomic::wait until the next region's notify. The caller drains as
/// lane 0 and returns only once no worker can still read its descriptor.
/// A `parallel_for` issued from inside a chunk (nested parallelism) runs
/// its chunks inline, in order — no new tasks, no deadlock, same chunk
/// structure; so does a region issued while another thread's region holds
/// the pool.
///
/// Sizing: `PPACD_THREADS` environment variable, else
/// std::thread::hardware_concurrency(); `set_thread_count()` (e.g. from a
/// `--threads` CLI flag) reconfigures the pool between parallel regions.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace ppacd::exec {

/// Grain value meaning "never split": the whole range runs as one chunk on
/// the calling thread, degrading every helper below to its serial form.
inline constexpr std::size_t kSerialGrain = static_cast<std::size_t>(-1);

/// Current pool width in lanes (worker threads + the calling thread); >= 1.
int thread_count();

/// Reconfigures the pool to `count` lanes (clamped to >= 1), joining the old
/// workers first. Must not be called from inside a parallel region, nor while
/// another thread issues regions (callers size per-lane scratch by
/// worker_slots()).
void set_thread_count(int count);

/// Number of scratch slots a parallel region may index with
/// this_worker_slot(): equal to thread_count().
std::size_t worker_slots();

/// Stable slot of the executing lane in [0, worker_slots()): 0 for the
/// calling (non-pool) thread, 1..N-1 for pool workers. Use it to index
/// per-lane scratch (e.g. the V-P&R scratch netlists); never use it to seed
/// randomness (slot occupancy is timing-dependent, chunk indices are not).
std::size_t this_worker_slot();

/// True while the current thread is executing a region chunk — on a pool
/// worker or on the calling thread draining as lane 0. Nested parallel calls
/// run inline in that case.
bool inside_parallel_region();

namespace detail {

/// Non-owning view of the region body. run_chunks only borrows the caller's
/// lambda for the duration of the (blocking) region, so issuing a parallel
/// region never heap-allocates — a std::function parameter would copy the
/// capture onto the heap on every parallel_for call on a hot path.
class ChunkFnRef {
 public:
  template <typename Fn>
  ChunkFnRef(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* ctx, std::size_t c) {
          (*static_cast<const Fn*>(ctx))(c);
        }) {}

  void operator()(std::size_t chunk) const { call_(ctx_, chunk); }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t);
};

/// Runs chunk_fn(0..chunk_count-1) across the pool; blocks until all chunks
/// finish. Rethrows the first chunk exception after the region drains.
void run_chunks(std::size_t chunk_count, const ChunkFnRef& chunk_fn);

/// Number of chunks for `n` items at the given grain (grain 0 acts as 1).
inline std::size_t chunk_count_for(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  if (grain >= n) return 1;
  return (n + grain - 1) / grain;
}

}  // namespace detail

/// Calls fn(chunk_begin, chunk_end, chunk_index) for every grain-sized chunk
/// of [begin, end). Chunk boundaries depend only on the range and grain.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                         Fn&& fn) {
  const std::size_t n = end > begin ? end - begin : 0;
  const std::size_t chunks = detail::chunk_count_for(n, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    fn(begin, end, std::size_t{0});
    return;
  }
  const std::size_t step = grain == 0 ? 1 : grain;
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * step;
    const std::size_t e = b + step < end ? b + step : end;
    fn(b, e, c);
  });
}

/// Calls fn(i) for every i in [begin, end), chunked by grain.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t b, std::size_t e, std::size_t) {
                        for (std::size_t i = b; i < e; ++i) fn(i);
                      });
}

/// Ordered chunk-indexed reduction: map(chunk_begin, chunk_end) -> T runs in
/// parallel per chunk; the partials are folded as
/// combine(...combine(combine(identity, p0), p1)..., pK) in ascending chunk
/// order on the calling thread, making the result independent of the thread
/// count (bit-identical for floating-point T).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, Map&& map, Combine&& combine) {
  const std::size_t n = end > begin ? end - begin : 0;
  const std::size_t chunks = detail::chunk_count_for(n, grain);
  if (chunks == 0) return identity;
  if (chunks == 1) return combine(std::move(identity), map(begin, end));
  const std::size_t step = grain == 0 ? 1 : grain;
  std::vector<T> partials(chunks, identity);
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * step;
    const std::size_t e = b + step < end ? b + step : end;
    partials[c] = map(b, e);
  });
  T result = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) {
    result = combine(std::move(result), std::move(partials[c]));
  }
  return result;
}

}  // namespace ppacd::exec
