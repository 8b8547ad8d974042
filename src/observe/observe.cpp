// lint:allow-file(raw-thread): ring-buffer recorder is cross-thread infra by design
#include "observe/observe.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>

namespace ppacd::observe {

const char* to_string(Stream stream) {
  switch (stream) {
    case Stream::kPlaceIter: return "place.iter";
    case Stream::kPlaceCg: return "place.cg";
    case Stream::kRouteBatch: return "route.batch";
    case Stream::kRouteRound: return "route.round";
    case Stream::kRouteHeatmap: return "route.heatmap";
    case Stream::kStaLevel: return "sta.level";
    case Stream::kStaSlack: return "sta.slack";
    case Stream::kVprCandidate: return "vpr.candidate";
    case Stream::kClusterLevel: return "cluster.level";
    case Stream::kClusterSize: return "cluster.size";
    case Stream::kClusterCut: return "cluster.cut";
    case Stream::kPlaceShard: return "place.shard";
    case Stream::kStreamCount: break;
  }
  return "?";
}

namespace {

/// Total order over samples; the deterministic merge key.
bool sample_less(const Sample& a, const Sample& b) {
  if (a.stream != b.stream) return a.stream < b.stream;
  if (a.series != b.series) return a.series < b.series;
  if (a.index != b.index) return a.index < b.index;
  return a.sub < b.sub;
}

bool env_default_enabled() {
  const char* env = std::getenv("PPACD_OBSERVE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Keeps the `count` highest-keyed samples (in no particular order).
void keep_highest(std::vector<Sample>& samples, std::size_t count) {
  if (samples.size() <= count) return;
  const auto cut =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() - count);
  std::nth_element(samples.begin(), cut, samples.end(), sample_less);
  samples.erase(samples.begin(), cut);
}

/// The samples one thread recorded. Only the owning thread writes; snapshots
/// and reset() touch it under the registry mutex while no parallel region is
/// emitting (the flow snapshots between phases / at the end). It keeps the
/// thread's highest keys, not its newest inserts: which samples survive
/// must not depend on how emit order was split across threads.
struct ThreadSamples {
  std::vector<Sample> samples;
  std::int64_t recorded = 0;

  void push(const Sample& sample, std::size_t capacity) {
    ++recorded;
    samples.push_back(sample);
    if (samples.size() >= 2 * capacity) keep_highest(samples, capacity);
  }
};

}  // namespace

struct Recorder::Impl {
  std::atomic<bool> enabled{env_default_enabled()};
  std::atomic<std::size_t> capacity{std::size_t{1} << 15};
  std::atomic<std::int64_t> frames_dropped{0};

  mutable std::mutex mutex;  ///< guards the buffer registry, frames, series
  std::vector<std::unique_ptr<ThreadSamples>> buffers;
  std::deque<Frame> frames;
  std::int32_t next_series[static_cast<std::size_t>(Stream::kStreamCount)] = {};
};

Recorder::Impl& Recorder::impl() const {
  static Impl instance;
  return instance;
}

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

bool Recorder::enabled() const {
  return impl().enabled.load(std::memory_order_relaxed);
}

void Recorder::set_enabled(bool enabled) {
  impl().enabled.store(enabled, std::memory_order_relaxed);
}

std::size_t Recorder::capacity() const {
  return impl().capacity.load(std::memory_order_relaxed);
}

void Recorder::set_capacity(std::size_t capacity) {
  impl().capacity.store(std::max<std::size_t>(1, capacity),
                        std::memory_order_relaxed);
}

std::int32_t Recorder::begin_series(Stream stream) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.next_series[static_cast<std::size_t>(stream)]++;
}

namespace {

/// The calling thread's buffer, registered on its first record(). reset()
/// clears it in place, so the pointer stays valid for the process.
thread_local ThreadSamples* t_samples = nullptr;

}  // namespace

void Recorder::record(Stream stream, std::int32_t series, std::int64_t index,
                      std::int64_t sub, std::initializer_list<double> values) {
  Impl& state = impl();
  // Emit sites gate on active() already; this keeps the contract (a
  // disabled recorder records nothing) even for direct API callers.
  if (!state.enabled.load(std::memory_order_relaxed)) return;
  if (t_samples == nullptr) {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.buffers.push_back(std::make_unique<ThreadSamples>());
    t_samples = state.buffers.back().get();
  }
  Sample sample;
  sample.stream = static_cast<std::int32_t>(stream);
  sample.series = series;
  sample.index = index;
  sample.sub = sub;
  for (const double v : values) {
    if (sample.count >= 4) break;
    sample.values[sample.count++] = v;
  }
  t_samples->push(sample, capacity());
}

void Recorder::record_frame(Stream stream, std::int32_t series,
                            std::int64_t index, std::int32_t nx,
                            std::int32_t ny, std::vector<double> values) {
  Impl& state = impl();
  if (!state.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.frames.size() >= kMaxFrames) {
    state.frames.pop_front();
    state.frames_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  Frame frame;
  frame.stream = static_cast<std::int32_t>(stream);
  frame.series = series;
  frame.index = index;
  frame.nx = nx;
  frame.ny = ny;
  frame.values = std::move(values);
  state.frames.push_back(std::move(frame));
}

std::vector<Sample> Recorder::merged_samples() const {
  Impl& state = impl();
  std::vector<Sample> merged;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (const auto& buffer : state.buffers) {
      merged.insert(merged.end(), buffer->samples.begin(),
                    buffer->samples.end());
    }
  }
  // Every one of the overall highest keys is among its own thread's highest
  // keys, so this is the same set at any thread count.
  keep_highest(merged, capacity());
  std::sort(merged.begin(), merged.end(), sample_less);
  return merged;
}

std::vector<Frame> Recorder::frames() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  return {state.frames.begin(), state.frames.end()};
}

std::int64_t Recorder::dropped() const {
  Impl& state = impl();
  std::int64_t recorded = 0;
  std::size_t retained = 0;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (const auto& buffer : state.buffers) {
      recorded += buffer->recorded;
      retained += buffer->samples.size();
    }
  }
  // merged_samples() keeps min(retained, capacity) of them.
  const auto kept = static_cast<std::int64_t>(std::min(retained, capacity()));
  return recorded - kept +
         state.frames_dropped.load(std::memory_order_relaxed);
}

void Recorder::reset() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& buffer : state.buffers) {
    buffer->samples.clear();
    buffer->recorded = 0;
  }
  state.frames.clear();
  state.frames_dropped.store(0, std::memory_order_relaxed);
  std::fill(std::begin(state.next_series), std::end(state.next_series), 0);
}

telemetry::Json Recorder::to_json(std::string_view label) const {
  using telemetry::Json;
  Json out = Json::object();
  out.set("schema", "ppacd-observe-v1");
  out.set("label", label);
  out.set("dropped", dropped());

  Json samples = Json::array();
  for (const Sample& sample : merged_samples()) {
    Json entry = Json::object();
    entry.set("stream", to_string(static_cast<Stream>(sample.stream)));
    entry.set("series", sample.series);
    entry.set("index", sample.index);
    entry.set("sub", sample.sub);
    Json values = Json::array();
    for (std::int32_t i = 0; i < sample.count; ++i) {
      values.push_back(sample.values[i]);
    }
    entry.set("values", std::move(values));
    samples.push_back(std::move(entry));
  }
  out.set("samples", std::move(samples));

  Json frames_json = Json::array();
  for (const Frame& frame : frames()) {
    Json entry = Json::object();
    entry.set("stream", to_string(static_cast<Stream>(frame.stream)));
    entry.set("series", frame.series);
    entry.set("index", frame.index);
    entry.set("nx", frame.nx);
    entry.set("ny", frame.ny);
    Json values = Json::array();
    for (const double v : frame.values) values.push_back(v);
    entry.set("values", std::move(values));
    frames_json.push_back(std::move(entry));
  }
  out.set("frames", std::move(frames_json));
  return out;
}

bool write_events(const std::string& path, std::string_view label) {
  std::ofstream out(path);
  if (!out) return false;
  out << recorder().to_json(label).dump(2) << '\n';
  return static_cast<bool>(out);
}

}  // namespace ppacd::observe
