// lint:allow-file(raw-thread): metrics registry is cross-thread infra by design
#include "telemetry/telemetry.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

namespace ppacd::telemetry {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: references stay valid across later registrations.
  std::map<std::string, Counter, std::less<>> counters;
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

Json MetricsRegistry::to_json() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  Json counters = Json::object();
  for (const auto& [name, counter] : state.counters) {
    counters.set(name, counter.value());
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  return out;
}

void MetricsRegistry::reset() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& [name, counter] : state.counters) counter.reset();
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

Json attrs_json(const std::vector<SpanAttr>& attrs) {
  Json out = Json::object();
  for (const SpanAttr& attr : attrs) {
    if (attr.is_number) {
      out.set(attr.key, attr.number);
    } else {
      out.set(attr.key, attr.text);
    }
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
    if (!record.attrs.empty()) event.set("args", attrs_json(record.attrs));
    events.push_back(std::move(event));
  }
  Json trace = Json::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", "ms");
  return trace;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json().dump() << '\n';
  return static_cast<bool>(out);
}

Json spans_json() {
  Json spans = Json::array();
  for (const SpanRecord& record : span_snapshot()) {
    Json span = Json::object();
    span.set("name", record.name);
    span.set("start_us", record.start_us);
    span.set("dur_us", record.dur_us);
    span.set("depth", record.depth);
    span.set("parent", static_cast<double>(record.parent));
    span.set("thread", static_cast<std::int64_t>(record.thread));
    if (!record.attrs.empty()) span.set("attrs", attrs_json(record.attrs));
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace ppacd::telemetry
