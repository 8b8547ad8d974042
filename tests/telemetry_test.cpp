#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/report.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace ppacd::telemetry {
namespace {

// Tests share the process-wide registry/span store; each test that inspects
// global state resets it first.

TEST(Metrics, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 6);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, RegistryReturnsStableHandles) {
  metrics().reset();
  Counter& a = metrics().counter("test.registry.counter");
  Counter& b = metrics().counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);
  // reset() zeroes values but keeps handles valid.
  metrics().reset();
  EXPECT_EQ(a.value(), 0);
  a.add(1);
  EXPECT_EQ(metrics().counter("test.registry.counter").value(), 1);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  metrics().reset();
  Counter& counter = metrics().counter("test.concurrent.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, SnapshotJsonHoldsOnlyCounters) {
  metrics().reset();
  metrics().counter("test.snap.counter").add(7);
  const Json snap = metrics().to_json();
  ASSERT_TRUE(snap.is_object());
  EXPECT_EQ(snap.size(), 1u);
  const Json* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* c = counters->find("test.snap.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_double(), 7.0);
}

TEST(Spans, NestingRecordsParentAndDepth) {
  reset_spans();
  {
    TraceSpan outer("test.outer");
    outer.attr("k", 1.0);
    {
      TraceSpan inner("test.inner");
      inner.attr("label", std::string_view("abc"));
    }
    TraceSpan sibling("test.sibling");
  }
  const std::vector<SpanRecord> spans = span_snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Records appear in creation order.
  EXPECT_EQ(spans[0].name, "test.outer");
  EXPECT_EQ(spans[1].name, "test.inner");
  EXPECT_EQ(spans[2].name, "test.sibling");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[2].parent, 0);
  // All closed, with children contained in the parent interval.
  for (const SpanRecord& s : spans) EXPECT_GE(s.dur_us, 0.0);
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].start_us + spans[1].dur_us,
            spans[0].start_us + spans[0].dur_us + 1.0);
  // Attributes survive.
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "k");
  EXPECT_TRUE(spans[0].attrs[0].is_number);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_FALSE(spans[1].attrs[0].is_number);
  EXPECT_EQ(spans[1].attrs[0].text, "abc");
}

TEST(Spans, AnchoredSpanParentsOffMainThreadSpans) {
  reset_spans();
  {
    TraceSpan phase("test.phase");
    phase.anchor();
    // A thread with an empty span stack parents under the anchored span
    // instead of becoming a root (what worker-side spans rely on).
    std::thread worker([] { TraceSpan child("test.worker_child"); });
    worker.join();
    {
      // On the anchoring thread the normal stack parenting still wins.
      TraceSpan inline_child("test.inline_child");
    }
  }
  {
    // The anchor dies with its span: a later off-stack span is a root again.
    std::thread worker([] { TraceSpan orphan("test.after_anchor"); });
    worker.join();
  }
  const std::vector<SpanRecord> spans = span_snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "test.phase");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "test.worker_child");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "test.inline_child");
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].name, "test.after_anchor");
  EXPECT_EQ(spans[3].parent, -1);
}

TEST(Spans, InactiveSpanRecordsNothing) {
  reset_spans();
  {
    TraceSpan off("test.off", false);
    off.attr("ignored", 1.0);
  }
  EXPECT_TRUE(span_snapshot().empty());
}

TEST(Spans, ChromeTraceHasOneEventPerSpan) {
  reset_spans();
  {
    TraceSpan outer("test.chrome.outer");
    TraceSpan inner("test.chrome.inner");
  }
  const Json trace = chrome_trace_json();
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  const Json& ev = events->at(0);
  EXPECT_EQ(ev.find("name")->as_string(), "test.chrome.outer");
  EXPECT_EQ(ev.find("ph")->as_string(), "X");
  EXPECT_TRUE(ev.contains("ts"));
  EXPECT_TRUE(ev.contains("dur"));
}

TEST(Json, RoundTripPreservesStructure) {
  Json obj = Json::object();
  obj.set("int", 42);
  obj.set("neg", -1.5);
  obj.set("big", 123456789012345.0);
  obj.set("str", "a \"quoted\"\nline\t\\");
  obj.set("flag", true);
  obj.set("nil", Json());
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  Json nested = Json::object();
  nested.set("k", 3.25);
  arr.push_back(std::move(nested));
  obj.set("arr", std::move(arr));

  for (const int indent : {-1, 2}) {
    const std::string text = obj.dump(indent);
    const std::optional<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_DOUBLE_EQ(parsed->find("int")->as_double(), 42.0);
    EXPECT_DOUBLE_EQ(parsed->find("neg")->as_double(), -1.5);
    EXPECT_DOUBLE_EQ(parsed->find("big")->as_double(), 123456789012345.0);
    EXPECT_EQ(parsed->find("str")->as_string(), "a \"quoted\"\nline\t\\");
    EXPECT_TRUE(parsed->find("flag")->as_bool());
    EXPECT_TRUE(parsed->find("nil")->is_null());
    const Json* arr2 = parsed->find("arr");
    ASSERT_NE(arr2, nullptr);
    ASSERT_EQ(arr2->size(), 3u);
    EXPECT_EQ(arr2->at(1).as_string(), "two");
    EXPECT_DOUBLE_EQ(arr2->at(2).find("k")->as_double(), 3.25);
  }
}

TEST(Json, EscapesControlCharactersAndPassesUtf8Through) {
  // Named escapes plus the \u00xx fallback for other control bytes.
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2\r\tend"), "line1\\nline2\\r\\tend");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape(std::string_view("nul\0char", 8)), "nul\\u0000char");
  // Non-ASCII metric/design names are raw UTF-8, not escape sequences.
  EXPECT_EQ(json_escape("dise\xc3\xb1o_\xe6\xb8\xac\xe8\xa9\xa6"),
            "dise\xc3\xb1o_\xe6\xb8\xac\xe8\xa9\xa6");
}

TEST(Json, ControlCharacterNamesSurviveDumpAndReparse) {
  // A hostile design/metric name must produce valid JSON, not a broken
  // document. (Reports embed user-supplied design names as object keys.)
  Json obj = Json::object();
  obj.set("bad\nkey\x02", "bad\tvalue\x1f");
  obj.set("dise\xc3\xb1o", 1.0);
  const std::string text = obj.dump(-1);
  const std::optional<Json> parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  const Json* value = parsed->find("bad\nkey\x02");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->as_string(), "bad\tvalue\x1f");
  ASSERT_NE(parsed->find("dise\xc3\xb1o"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->find("dise\xc3\xb1o")->as_double(), 1.0);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("'single'").has_value());
  EXPECT_FALSE(Json::parse("nan").has_value());
}

TEST(RunReport, EmittedJsonRoundTrips) {
  reset_spans();
  metrics().reset();
  // Synthesize the telemetry a flow run would leave behind.
  {
    TraceSpan cluster("flow.cluster");
    cluster.attr("clusters", 12.0);
    { TraceSpan extract("flow.extract"); }
  }
  { TraceSpan place("flow.seed_place"); }
  metrics().counter("place.gp.iterations").add(24);

  flow::FlowOptions options;
  flow::PlaceOutcome place;
  place.hpwl_um = 1234.5;
  place.cluster_count = 12;
  flow::PpaOutcome ppa;
  ppa.rwl_um = 2345.0;
  ppa.wns_ps = -10.0;

  flow::RunReportInputs inputs;
  inputs.design = "unit";
  inputs.flow = "ours";
  inputs.options = &options;
  inputs.place = &place;
  inputs.ppa = &ppa;

  const std::string path = "telemetry_test_report.json";
  ASSERT_TRUE(flow::write_run_report(path, inputs));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  const std::optional<Json> parsed = Json::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("design")->as_string(), "unit");
  EXPECT_EQ(parsed->find("flow")->as_string(), "ours");
  ASSERT_TRUE(parsed->contains("lanes"));
  EXPECT_GE(parsed->find("lanes")->as_double(), 1.0);
  ASSERT_TRUE(parsed->contains("options"));
  ASSERT_TRUE(parsed->contains("metrics"));
  EXPECT_DOUBLE_EQ(parsed->find("place")->find("hpwl_um")->as_double(), 1234.5);
  EXPECT_DOUBLE_EQ(parsed->find("ppa")->find("wns_ps")->as_double(), -10.0);

  // Phase aggregation: every "flow.*" span shows up by name, nested or not.
  const Json* phases = parsed->find("phases");
  ASSERT_NE(phases, nullptr);
  std::vector<std::string> names;
  for (const Json& phase : phases->elements()) {
    names.push_back(phase.find("name")->as_string());
    EXPECT_GE(phase.find("seconds")->as_double(), 0.0);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "flow.cluster"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "flow.extract"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "flow.seed_place"),
            names.end());
  const Json* counters = parsed->find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("place.gp.iterations")->as_double(), 24.0);
}

TEST(Macros, RecordIntoGlobalRegistry) {
  metrics().reset();
  PPACD_COUNT("test.macro.counter", 3);
  EXPECT_EQ(metrics().counter("test.macro.counter").value(), 3);
}

}  // namespace
}  // namespace ppacd::telemetry
