/// \file observe.hpp
/// \brief Flight recorder: hot loops emit structured, schema-versioned
/// convergence events (schema `ppacd-observe-v1`) that the QoR ledger,
/// the run report, and tools/flow_dashboard.py consume.
///
/// Telemetry (src/telemetry) answers "how long did each phase take and what
/// were the end-of-run scalars"; the recorder answers "what trajectory did
/// the solvers take to get there": per-CG-iteration residuals, per-placer-
/// iteration HPWL/overflow/spreading displacement, per-router-round overflow
/// drain plus a binned congestion heatmap, per-STA-level sweep widths and
/// the end-of-run slack distribution, V-P&R shape-candidate scores, and
/// cluster size/cut-quality distributions.
///
/// Design constraints (all load-bearing, see DESIGN.md section 13):
///   * Bounded memory: each thread keeps at most 2 * capacity() samples,
///     trimmed to its highest capacity() keys (drops counted); variable-size
///     payloads (heatmaps, histograms) go into a separate bounded frame
///     store.
///   * Deterministic: each sample carries an explicit sort key (stream,
///     series, index, sub) assigned at the emit site from logical indices
///     (iteration, round, level — never wall time, RNG or thread id).
///     Which samples survive and in what order they merge depend on those
///     keys alone, so the merged stream is bit-identical at any thread
///     count (the exec contract: order by logical index, never by thread id
///     or completion time).
///   * Cheap when off: emit sites gate on active(), one relaxed atomic load.
///   * No feedback: the recorder is write-only for the solvers. Nothing a
///     hot loop computes may depend on recorder state, so the golden flow
///     hashes in determinism_test are unchanged with observe on or off.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace ppacd::observe {

/// Event streams. A fixed enum (not interned strings) so stream ids are
/// compile-time constants — identical across threads, runs, and builds,
/// which the deterministic merge order depends on.
enum class Stream : std::int32_t {
  kPlaceIter = 0,   ///< per placer outer iteration: hpwl, overflow,
                    ///< anchor (density-penalty) weight, spread displacement
  kPlaceCg,         ///< per CG iteration: relative residual;
                    ///< sub == -1 carries {iters_run, final_residual}
  kRouteBatch,      ///< per initial-routing batch: nets committed,
                    ///< cumulative nets, overflowed edges so far
  kRouteRound,      ///< per rip-up round: overflowed edges, victims,
                    ///< total overflow
  kRouteHeatmap,    ///< frame: binned congestion grid after each round
  kStaLevel,        ///< per topological level: sweep width
  kStaSlack,        ///< frame: end-of-run endpoint slack histogram
                    ///< (layout: [lo_ps, hi_ps, count_0 .. count_{n-1}])
  kVprCandidate,    ///< per shape candidate: total/hpwl/congestion cost
  kClusterLevel,    ///< per coarsening level: vertices, merges, match rate
  kClusterSize,     ///< frame: final cluster sizes (cells per cluster)
  kClusterCut,      ///< end of clustering: cut-net fraction, clusters,
                    ///< singletons
  kPlaceShard,      ///< per shard of a sharded placement pass: movables,
                    ///< hpwl, iterations, overflow; index == shard count
                    ///< carries the post-stitch summary
  kStreamCount
};

/// Stable lowercase name ("place.iter", "route.heatmap", ...) used in the
/// JSON export and by the Python tools.
const char* to_string(Stream stream);

/// One fixed-size recorded sample. (stream, series, index, sub) is the
/// unique, deterministic sort key; emit sites must never reuse a key.
struct Sample {
  std::int32_t stream = 0;
  std::int32_t series = 0;   ///< which run of the stream (placer #2, ...)
  std::int64_t index = 0;    ///< iteration / round / level / cluster
  std::int64_t sub = 0;      ///< inner index (CG iter, candidate, ...)
  std::int32_t count = 0;    ///< populated entries of values[]
  double values[4] = {0.0, 0.0, 0.0, 0.0};
};

/// One variable-size payload (heatmap grid, histogram). Frames must be
/// emitted from serial program points only — they carry no merge key.
struct Frame {
  std::int32_t stream = 0;
  std::int32_t series = 0;
  std::int64_t index = 0;
  std::int32_t nx = 0;  ///< grid width (0 for 1-D payloads)
  std::int32_t ny = 0;  ///< grid height (0 for 1-D payloads)
  std::vector<double> values;
};

/// Process-wide recorder. Thread-safe: each thread appends to its own
/// buffer (registered on first use under a mutex, then written without a
/// lock and kept for the life of the process); snapshots merge the buffers
/// in deterministic key order.
class Recorder {
 public:
  /// Runtime collection switch. Defaults to the PPACD_OBSERVE environment
  /// variable ("0"/"" = off, anything else = on); flow_cli --observe and
  /// tests flip it explicitly.
  bool enabled() const;
  void set_enabled(bool enabled);

  /// Samples kept (default 1 << 15): the `capacity` highest keys recorded.
  /// Each thread trims its buffer to its own highest `capacity` keys when
  /// it reaches 2 * capacity, so memory is bounded by
  /// threads * 2 * capacity * sizeof(Sample).
  std::size_t capacity() const;
  void set_capacity(std::size_t capacity);

  /// Begins a new series of `stream`: returns a per-stream sequence number.
  /// Call from serial context only (the flow phases are serial), so series
  /// ids are assigned in deterministic order.
  std::int32_t begin_series(Stream stream);

  /// Appends one sample to the calling thread's buffer. `values` is
  /// truncated to 4 entries.
  void record(Stream stream, std::int32_t series, std::int64_t index,
              std::int64_t sub, std::initializer_list<double> values);

  /// Appends one frame (serial emit sites only). The frame store holds at
  /// most kMaxFrames frames; oldest dropped first.
  void record_frame(Stream stream, std::int32_t series, std::int64_t index,
                    std::int32_t nx, std::int32_t ny,
                    std::vector<double> values);

  /// The capacity() highest-keyed samples recorded on any thread, sorted by
  /// (stream, series, index, sub). The result is identical for any thread
  /// count as long as emit sites used deterministic, unique keys.
  std::vector<Sample> merged_samples() const;

  /// All retained frames in emission order.
  std::vector<Frame> frames() const;

  /// Samples recorded but not in merged_samples(), plus frames dropped
  /// from the store.
  std::int64_t dropped() const;

  /// Clears samples, frames, series counters, and the drop count. Does not
  /// change enabled/capacity.
  void reset();

  /// Full export:
  ///   { "schema": "ppacd-observe-v1", "label": ..., "dropped": ...,
  ///     "samples": [...], "frames": [...] }
  telemetry::Json to_json(std::string_view label) const;

  static constexpr std::size_t kMaxFrames = 64;

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide recorder.
Recorder& recorder();

/// Writes recorder().to_json(label) to `path`; false on I/O error.
bool write_events(const std::string& path, std::string_view label);

/// Gate for instrumentation blocks:
///   if (observe::active()) { ... compute + record ... }
inline bool active() { return recorder().enabled(); }

}  // namespace ppacd::observe
