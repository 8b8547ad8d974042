/// \file telemetry.hpp
/// \brief Flow-wide observability: a process-wide registry of counters and
/// nesting RAII trace spans.
///
/// Design goals:
///   * Hot-path friendly: counter handles are resolved once per call site
///     (PPACD_COUNT caches a reference in a function-local static) and
///     updated with a relaxed atomic; no lock is taken on the increment path.
///   * Nesting spans: `TraceSpan` records wall time plus user attributes and
///     tracks parent/depth through a thread-local stack, so clustering ->
///     per-level coarsening, shaping -> per-cluster V-P&R, and placement ->
///     per-iteration hierarchies come out as a tree. Per-run values (a
///     level's match rate, an iteration's overflow) are span attributes.
///   * Exportable: spans serialize as Chrome `trace_event` JSON loadable in
///     chrome://tracing; spans and counters snapshot to JSON for the per-run
///     report (see flow/report.hpp).
///
/// Counter naming scheme: `phase.subsystem.name` (e.g. `place.gp.iterations`,
/// `cluster.fc.merges`, `route.rrr.rounds`); see DESIGN.md "Observability".
#pragma once
// lint:allow-file(raw-thread): metrics registry is cross-thread infra by design

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace ppacd::telemetry {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Process-wide registry of named counters. Registration (first use of a
/// name) takes a mutex; returned references stay valid for the process
/// lifetime, so call sites may cache them. reset() zeroes every value but
/// never invalidates handles.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);

  /// JSON snapshot: {"counters": {...}}.
  Json to_json() const;

  /// Zeroes all registered counters (handles stay valid).
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry.
MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// One attribute attached to a span.
struct SpanAttr {
  std::string key;
  bool is_number = true;
  double number = 0.0;
  std::string text;
};

/// A completed (or still-open, dur_us < 0) span in the global span store.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< since the process telemetry epoch
  double dur_us = -1.0;
  int depth = 0;
  std::int64_t parent = -1;  ///< index into the store, -1 for roots
  std::uint32_t thread = 0;  ///< small sequential per-thread id
  std::vector<SpanAttr> attrs;
};

/// RAII wall-time span. Construction pushes onto the calling thread's span
/// stack (establishing parent/depth); destruction records the duration.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) : TraceSpan(name, true) {}
  /// `active == false` records nothing (cheap conditional instrumentation,
  /// e.g. per-iteration placer spans only for top-level flow placements).
  TraceSpan(std::string_view name, bool active);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::int64_t value) {
    attr(key, static_cast<double>(value));
  }
  void attr(std::string_view key, int value) {
    attr(key, static_cast<double>(value));
  }
  void attr(std::string_view key, std::size_t value) {
    attr(key, static_cast<double>(value));
  }
  void attr(std::string_view key, std::string_view value);

  /// Registers this span as the process-wide *anchor*: a span constructed on
  /// a thread whose own span stack is empty (e.g. an exec pool worker inside
  /// a parallel region) parents under the anchor instead of becoming a root.
  /// The flow anchors each phase span, so worker spans land under the phase
  /// they ran in. The anchor clears when this span is destroyed; only one
  /// anchor is live at a time (last call wins).
  void anchor();

 private:
  std::int64_t index_ = -1;
  std::uint64_t generation_ = 0;
};

/// Microseconds since the process telemetry epoch (first telemetry use).
double now_us();

/// Copy of all recorded spans (open spans have dur_us < 0).
std::vector<SpanRecord> span_snapshot();

/// Clears the span store. Only call when no spans are live on any thread
/// (live RAII spans from before the reset are ignored at destruction).
void reset_spans();

/// Span attributes as a JSON object {key: number or text}.
Json attrs_json(const std::vector<SpanAttr>& attrs);

/// All recorded spans as a JSON array of {name, start_us, dur_us, depth,
/// parent, thread, attrs}.
Json spans_json();

/// Spans as Chrome trace_event JSON: {"traceEvents": [...], ...}. Load via
/// chrome://tracing or https://ui.perfetto.dev.
Json chrome_trace_json();

/// Writes chrome_trace_json() to `path`; false on I/O error.
bool write_chrome_trace(const std::string& path);

// ---------------------------------------------------------------------------
// Counter macro
// ---------------------------------------------------------------------------

#define PPACD_COUNT(name, delta)                                      \
  do {                                                                \
    static ::ppacd::telemetry::Counter& ppacd_tm_handle_ =            \
        ::ppacd::telemetry::metrics().counter(name);                  \
    ppacd_tm_handle_.add(static_cast<std::int64_t>(delta));           \
  } while (0)

}  // namespace ppacd::telemetry
