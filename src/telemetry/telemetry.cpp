// lint:allow-file(raw-thread): metrics registry is cross-thread infra by design
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

namespace ppacd::telemetry {

namespace {

/// Relaxed atomic double accumulation (no std::atomic<double>::fetch_add
/// before C++20 on all targets; the CAS loop is portable).
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::percentile(double q) const {
  return percentile_from_buckets(bounds_, bucket_counts(), q);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double percentile_from_buckets(const std::vector<double>& bounds,
                               const std::vector<std::int64_t>& counts,
                               double q) {
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  if (total <= 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based, q = 0 -> first, q = 1 -> last.
  const double rank = 1.0 + q * static_cast<double>(total - 1);
  std::int64_t below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(below + counts[i]) >= rank) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      if (i == 0) return bounds[0];  // lower edge unknown: pin to ceiling
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
      return bounds[i - 1] + frac * (bounds[i] - bounds[i - 1]);
    }
    below += counts[i];
  }
  return bounds.back();
}

const std::vector<double>& default_histogram_bounds() {
  static const std::vector<double> bounds = {1e-4, 1e-3, 1e-2, 1e-1, 1.0,
                                             10.0, 1e2,  1e3,  1e4,  1e5,
                                             1e6};
  return bounds;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: references stay valid across later registrations.
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl instance;
  return instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.counters.find(name);
  if (it != state.counters.end()) return it->second;
  return state.counters.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.gauges.find(name);
  if (it != state.gauges.end()) return it->second;
  return state.gauges.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& upper_bounds) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto it = state.histograms.find(name);
  if (it != state.histograms.end()) return it->second;
  return state.histograms
      .try_emplace(std::string(name), upper_bounds.empty()
                                          ? default_histogram_bounds()
                                          : upper_bounds)
      .first->second;
}

Json MetricsRegistry::to_json() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  Json counters = Json::object();
  for (const auto& [name, counter] : state.counters) {
    counters.set(name, counter.value());
  }
  Json gauges = Json::object();
  for (const auto& [name, gauge] : state.gauges) {
    gauges.set(name, gauge.value());
  }
  Json histograms = Json::object();
  for (const auto& [name, histogram] : state.histograms) {
    Json entry = Json::object();
    entry.set("count", histogram.count());
    entry.set("sum", histogram.sum());
    Json bounds = Json::array();
    for (const double b : histogram.upper_bounds()) bounds.push_back(b);
    entry.set("upper_bounds", std::move(bounds));
    Json buckets = Json::array();
    for (const std::int64_t c : histogram.bucket_counts()) buckets.push_back(c);
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

void MetricsRegistry::reset() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& [name, counter] : state.counters) counter.reset();
  for (auto& [name, gauge] : state.gauges) gauge.reset();
  for (auto& [name, histogram] : state.histograms) histogram.reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

// ---------------------------------------------------------------------------
// Span store
// ---------------------------------------------------------------------------

namespace {

/// Backstop against unbounded growth in pathological runs; drops (and counts)
/// spans beyond the cap rather than exhausting memory.
constexpr std::size_t kMaxSpans = 1u << 20;

struct SpanStore {
  std::mutex mutex;
  std::vector<SpanRecord> records;
  std::uint64_t generation = 1;  ///< bumped by reset_spans()
  std::int64_t dropped = 0;
  std::uint32_t next_thread_id = 0;
  // Fallback parent for spans opened on threads with an empty span stack
  // (pool workers). Set by TraceSpan::anchor(); validated by generation.
  std::int64_t anchor_index = -1;
  std::uint64_t anchor_generation = 0;
};

SpanStore& span_store() {
  static SpanStore store;
  return store;
}

std::chrono::steady_clock::time_point epoch() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

std::uint32_t this_thread_id() {
  thread_local std::uint32_t id = [] {
    SpanStore& store = span_store();
    std::lock_guard<std::mutex> lock(store.mutex);
    return store.next_thread_id++;
  }();
  return id;
}

/// Per-thread stack of open span indices (parent tracking).
thread_local std::vector<std::int64_t> t_span_stack;

std::string format_attr(const SpanAttr& attr) {
  if (!attr.is_number) return attr.text;
  char buffer[32];
  if (attr.number == static_cast<std::int64_t>(attr.number)) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(attr.number));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.4g", attr.number);
  }
  return buffer;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content << '\n';
  return static_cast<bool>(out);
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

TraceSpan::TraceSpan(std::string_view name, bool active) {
  if (!active) return;
  const double start = now_us();
  // Resolve the thread id before locking: its first-use initializer takes the
  // store mutex itself, and std::mutex is not recursive.
  const std::uint32_t thread = this_thread_id();
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (store.records.size() >= kMaxSpans) {
    ++store.dropped;
    return;
  }
  SpanRecord record;
  record.name = std::string(name);
  record.start_us = start;
  if (!t_span_stack.empty()) {
    record.depth = static_cast<int>(t_span_stack.size());
    record.parent = t_span_stack.back();
  } else if (store.anchor_index >= 0 &&
             store.anchor_generation == store.generation) {
    // Off-main-thread span: attach under the anchored phase span.
    record.parent = store.anchor_index;
    record.depth =
        store.records[static_cast<std::size_t>(store.anchor_index)].depth + 1;
  } else {
    record.depth = 0;
    record.parent = -1;
  }
  record.thread = thread;
  index_ = static_cast<std::int64_t>(store.records.size());
  generation_ = store.generation;
  store.records.push_back(std::move(record));
  t_span_stack.push_back(index_);
}

TraceSpan::~TraceSpan() {
  if (index_ < 0) return;
  const double end = now_us();
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (!t_span_stack.empty() && t_span_stack.back() == index_) {
    t_span_stack.pop_back();
  }
  if (store.generation != generation_) return;  // store was reset under us
  if (store.anchor_index == index_ && store.anchor_generation == generation_) {
    store.anchor_index = -1;  // the anchored span is closing
  }
  SpanRecord& record = store.records[static_cast<std::size_t>(index_)];
  record.dur_us = end - record.start_us;
}

void TraceSpan::anchor() {
  if (index_ < 0) return;
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (store.generation != generation_) return;
  store.anchor_index = index_;
  store.anchor_generation = generation_;
}

void TraceSpan::attr(std::string_view key, double value) {
  if (index_ < 0) return;
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (store.generation != generation_) return;
  SpanAttr attr;
  attr.key = std::string(key);
  attr.number = value;
  store.records[static_cast<std::size_t>(index_)].attrs.push_back(
      std::move(attr));
}

void TraceSpan::attr(std::string_view key, std::string_view value) {
  if (index_ < 0) return;
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  if (store.generation != generation_) return;
  SpanAttr attr;
  attr.key = std::string(key);
  attr.is_number = false;
  attr.text = std::string(value);
  store.records[static_cast<std::size_t>(index_)].attrs.push_back(
      std::move(attr));
}

std::vector<SpanRecord> span_snapshot() {
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  return store.records;
}

void reset_spans() {
  SpanStore& store = span_store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.records.clear();
  store.dropped = 0;
  ++store.generation;
  store.anchor_index = -1;
  t_span_stack.clear();  // only this thread's stack; see header contract
}

std::string span_tree() {
  const std::vector<SpanRecord> records = span_snapshot();
  std::string out;
  for (const SpanRecord& record : records) {
    out.append(static_cast<std::size_t>(record.depth) * 2, ' ');
    out += record.name;
    char buffer[64];
    if (record.dur_us >= 0.0) {
      std::snprintf(buffer, sizeof(buffer), "  %.3f ms",
                    record.dur_us / 1000.0);
    } else {
      std::snprintf(buffer, sizeof(buffer), "  (open)");
    }
    out += buffer;
    for (const SpanAttr& attr : record.attrs) {
      out += "  ";
      out += attr.key;
      out += '=';
      out += format_attr(attr);
    }
    out += '\n';
  }
  return out;
}

Json chrome_trace_json() {
  const std::vector<SpanRecord> records = span_snapshot();
  Json events = Json::array();
  for (const SpanRecord& record : records) {
    Json event = Json::object();
    event.set("name", record.name);
    event.set("ph", "X");
    event.set("ts", record.start_us);
    event.set("dur", record.dur_us >= 0.0 ? record.dur_us : 0.0);
    event.set("pid", 1);
    event.set("tid", static_cast<std::int64_t>(record.thread) + 1);
    event.set("cat", "ppacd");
    if (!record.attrs.empty()) {
      Json args = Json::object();
      for (const SpanAttr& attr : record.attrs) {
        if (attr.is_number) {
          args.set(attr.key, attr.number);
        } else {
          args.set(attr.key, attr.text);
        }
      }
      event.set("args", std::move(args));
    }
    events.push_back(std::move(event));
  }
  Json trace = Json::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ms");
  return trace;
}

bool write_chrome_trace(const std::string& path) {
  return write_text_file(path, chrome_trace_json().dump());
}

namespace {

Json span_record_json(const SpanRecord& record) {
  Json span = Json::object();
  span.set("name", record.name);
  span.set("start_us", record.start_us);
  span.set("dur_us", record.dur_us);
  span.set("depth", record.depth);
  span.set("parent", static_cast<double>(record.parent));
  span.set("thread", static_cast<std::int64_t>(record.thread));
  if (!record.attrs.empty()) {
    Json attrs = Json::object();
    for (const SpanAttr& attr : record.attrs) {
      if (attr.is_number) {
        attrs.set(attr.key, attr.number);
      } else {
        attrs.set(attr.key, attr.text);
      }
    }
    span.set("attrs", std::move(attrs));
  }
  return span;
}

}  // namespace

Json spans_json() {
  Json spans = Json::array();
  for (const SpanRecord& record : span_snapshot()) {
    spans.push_back(span_record_json(record));
  }
  return spans;
}

Json summary_json(std::string_view label) {
  Json out = Json::object();
  out.set("label", label);
  out.set("spans", spans_json());
  out.set("metrics", metrics().to_json());
  return out;
}

bool write_summary(const std::string& path, std::string_view label) {
  return write_text_file(path, summary_json(label).dump(2));
}

}  // namespace ppacd::telemetry
