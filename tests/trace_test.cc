// Unit tests for the odytrace subsystem: the bounded recorder, the
// recording macros (enabled and null-recorder paths), the chrome-trace
// exporter round-tripped through the bundled JSON parser, and the
// canonicalizer / differ / validator.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/trace/chrome_trace_exporter.h"
#include "src/trace/trace_diff.h"
#include "src/trace/trace_json.h"
#include "src/trace/trace_macros.h"
#include "src/trace/trace_recorder.h"
#include "src/trace/trace_session.h"

namespace odyssey {
namespace {

TraceEvent MakeInstant(Time ts, const char* name, uint64_t id = 0) {
  TraceEvent event;
  event.ts = ts;
  event.category = TraceCategory::kSim;
  event.phase = TracePhase::kInstant;
  event.name = name;
  event.id = id;
  return event;
}

TEST(TraceRecorderTest, RecordsInOrderBelowCapacity) {
  TraceRecorder recorder(8);
  for (int i = 0; i < 5; ++i) {
    recorder.Record(MakeInstant(i * 10, "tick", static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(recorder.size(), 5u);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.recorded_count(), 5u);
  EXPECT_EQ(recorder.dropped_count(), 0u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, static_cast<Time>(i) * 10);
    EXPECT_EQ(events[i].id, i);
  }
}

TEST(TraceRecorderTest, DropNewestKeepsStablePrefix) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(MakeInstant(i, "tick", static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded_count(), 10u);
  EXPECT_EQ(recorder.dropped_count(), 6u);
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The first four events survive — the prefix is stable under overflow.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i);
  }
}

TEST(TraceRecorderTest, CategoryCountsAndClear) {
  TraceRecorder recorder(16);
  TraceEvent event = MakeInstant(1, "a");
  event.category = TraceCategory::kRpc;
  recorder.Record(event);
  recorder.Record(event);
  event.category = TraceCategory::kFault;
  recorder.Record(event);
  EXPECT_EQ(recorder.category_counts()[static_cast<int>(TraceCategory::kRpc)], 2u);
  EXPECT_EQ(recorder.category_counts()[static_cast<int>(TraceCategory::kFault)], 1u);

  const uint64_t span_before = recorder.NextSpanId();
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded_count(), 0u);
  EXPECT_EQ(recorder.category_counts()[static_cast<int>(TraceCategory::kRpc)], 0u);
  // Span ids keep increasing across Clear so correlation ids stay unique.
  EXPECT_GT(recorder.NextSpanId(), span_before);
}

TEST(TraceMacrosTest, NullRecorderIsANoOp) {
  TraceRecorder* recorder = nullptr;
  int evaluations = 0;
  const auto count = [&evaluations] { return ++evaluations; };
  // None of these may crash; the argument expressions are still evaluated
  // (the macros promise single evaluation, not zero evaluation).
  ODY_TRACE_INSTANT(recorder, kSim, "noop", 0, 0);
  ODY_TRACE_INSTANT1(recorder, kSim, "noop", 0, 0, "v", count());
  ODY_TRACE_COUNTER(recorder, kSim, "noop", 0, 0, count());
  ODY_TRACE_BEGIN(recorder, kSim, "noop", 0, 1);
  ODY_TRACE_END(recorder, kSim, "noop", 0, 1);
  EXPECT_EQ(ODY_TRACE_SPAN_ID(recorder), 0u);
  EXPECT_LE(evaluations, 2);
}

TEST(TraceMacrosTest, RecordsThroughMacros) {
  TraceRecorder recorder(16);
  const uint64_t span = ODY_TRACE_SPAN_ID(&recorder);
  EXPECT_EQ(span, 1u);
  ODY_TRACE_BEGIN1(&recorder, kRpc, "call", 100, span, "bytes", 42);
  ODY_TRACE_END1(&recorder, kRpc, "call", 250, span, "rtt_us", 150);
  ODY_TRACE_COUNTER(&recorder, kViceroy, "queue_depth", 300, 7, 3);
  ODY_TRACE_INSTANT2(&recorder, kApp, "adapt", 400, 9, "level", 1.5, "window", 2.0);

  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, TracePhase::kSpanBegin);
  EXPECT_STREQ(events[0].name, "call");
  EXPECT_EQ(events[0].id, span);
  EXPECT_DOUBLE_EQ(events[0].arg0, 42.0);
  EXPECT_EQ(events[1].phase, TracePhase::kSpanEnd);
  EXPECT_EQ(events[2].phase, TracePhase::kCounter);
  EXPECT_STREQ(events[2].arg0_name, "value");
  EXPECT_DOUBLE_EQ(events[2].arg0, 3.0);
  EXPECT_EQ(events[3].phase, TracePhase::kInstant);
  EXPECT_STREQ(events[3].arg1_name, "window");
  EXPECT_DOUBLE_EQ(events[3].arg1, 2.0);
}

TEST(JsonTest, ParsesWhatTheExporterEmits) {
  std::string error;
  const JsonValue value = ParseJson(
      R"({"a": [1, -2.5, "x\n\"y\""], "b": {"t": true, "n": null}, "u": "é"})", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(value.is_object());
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_items()[1].number_value(), -2.5);
  EXPECT_EQ(a->array_items()[2].string_value(), "x\n\"y\"");
  EXPECT_EQ(value.Find("u")->string_value(), "\xc3\xa9");
  EXPECT_TRUE(value.Find("b")->Find("n")->is_null());
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string error;
  ParseJson("{\"a\": ", &error);
  EXPECT_FALSE(error.empty());
  ParseJson("[1, 2,]", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, RejectsNestingPastTheDepthCap) {
  // A million unclosed '[' once recursed until the stack overflowed.
  std::string error;
  EXPECT_TRUE(ParseJson(std::string(1000000, '['), &error).is_null());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  std::string deep_object;
  for (int i = 0; i <= kMaxJsonDepth; ++i) {
    deep_object += "{\"a\": ";
  }
  EXPECT_TRUE(ParseJson(deep_object, &error).is_null());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  // Exactly at the cap still parses.
  const std::string at_cap =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(at_cap, &error).is_array());
  EXPECT_TRUE(error.empty()) << error;
}

TEST(ChromeTraceExporterTest, ExportParsesBackAndValidates) {
  TraceRecorder recorder(64);
  const uint64_t span = recorder.NextSpanId();
  ODY_TRACE_BEGIN1(&recorder, kRpc, "call", 10, span, "bytes", 100);
  ODY_TRACE_END1(&recorder, kRpc, "call", 20, span, "rtt_us", 10);
  ODY_TRACE_INSTANT(&recorder, kFault, "message_drop", 15, 3);
  ODY_TRACE_COUNTER(&recorder, kEstimator, "supply_bps", 25, 0, 81920);

  const std::string json = ChromeTraceExporter::ToJson(recorder);
  std::string error;
  const JsonValue root = ParseJson(json, &error);
  ASSERT_TRUE(error.empty()) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  const TraceValidationResult validation = ValidateChromeTrace(json);
  EXPECT_TRUE(validation.ok) << validation.error;
  EXPECT_EQ(validation.event_count, 4u);
  const std::vector<std::string> expected = {"estimator", "fault", "rpc"};
  EXPECT_EQ(validation.categories, expected);
}

TEST(ChromeTraceExporterTest, ReportsDroppedEventsInMetadata) {
  TraceRecorder recorder(2);
  for (int i = 0; i < 5; ++i) {
    recorder.Record(MakeInstant(i, "tick"));
  }
  const std::string json = ChromeTraceExporter::ToJson(recorder);
  std::string error;
  const JsonValue root = ParseJson(json, &error);
  ASSERT_TRUE(error.empty()) << error;
  const JsonValue* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->Find("dropped_events");
  ASSERT_NE(dropped, nullptr);
  // otherData values are strings in the chrome-trace format.
  EXPECT_EQ(dropped->string_value(), "3");
}

TEST(TraceDiffTest, IdenticalTracesCompareEqual) {
  TraceRecorder recorder(64);
  ODY_TRACE_INSTANT(&recorder, kNet, "link_transition", 5, 1);
  ODY_TRACE_COUNTER(&recorder, kEstimator, "rtt_us", 7, 2, 120);
  const std::string json = ChromeTraceExporter::ToJson(recorder);

  std::string error;
  const std::vector<std::string> canon = CanonicalizeChromeTrace(json, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(canon.size(), 2u);
  const TraceDiffResult diff = DiffCanonical(canon, canon);
  EXPECT_TRUE(diff.identical);
}

TEST(TraceDiffTest, CanonicalizationRenumbersIds) {
  // Two recorders with the same event structure but different raw span ids
  // (as happens when process-global counters differ between runs) must
  // canonicalize identically.
  const auto record = [](TraceRecorder* recorder, uint64_t base) {
    ODY_TRACE_BEGIN(recorder, kRpc, "call", 10, base + 1);
    ODY_TRACE_BEGIN(recorder, kRpc, "call", 12, base + 2);
    ODY_TRACE_END(recorder, kRpc, "call", 20, base + 1);
    ODY_TRACE_END(recorder, kRpc, "call", 22, base + 2);
  };
  TraceRecorder a(16);
  TraceRecorder b(16);
  record(&a, 100);
  record(&b, 900);
  std::string error;
  const std::vector<std::string> canon_a =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(a), &error);
  ASSERT_TRUE(error.empty()) << error;
  const std::vector<std::string> canon_b =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(b), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(canon_a, canon_b);
  EXPECT_TRUE(DiffCanonical(canon_a, canon_b).identical);
}

TEST(TraceDiffTest, ReportsFirstDivergentField) {
  TraceRecorder a(16);
  TraceRecorder b(16);
  ODY_TRACE_COUNTER(&a, kViceroy, "queue_depth", 50, 1, 3);
  ODY_TRACE_COUNTER(&b, kViceroy, "queue_depth", 50, 1, 4);
  std::string error;
  const std::vector<std::string> canon_a =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(a), &error);
  const std::vector<std::string> canon_b =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(b), &error);
  const TraceDiffResult diff = DiffCanonical(canon_a, canon_b);
  ASSERT_FALSE(diff.identical);
  EXPECT_EQ(diff.index, 0u);
  EXPECT_EQ(diff.ts_a, 50);
  EXPECT_EQ(diff.field, "arg.value");
  EXPECT_NE(diff.value_a, diff.value_b);
  EXPECT_NE(diff.Format().find("divergence"), std::string::npos);
}

TEST(TraceDiffTest, ReportsMissingEvent) {
  TraceRecorder a(16);
  TraceRecorder b(16);
  ODY_TRACE_INSTANT(&a, kSim, "tick", 1, 0);
  ODY_TRACE_INSTANT(&b, kSim, "tick", 1, 0);
  ODY_TRACE_INSTANT(&b, kSim, "tock", 2, 0);
  std::string error;
  const std::vector<std::string> canon_a =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(a), &error);
  const std::vector<std::string> canon_b =
      CanonicalizeChromeTrace(ChromeTraceExporter::ToJson(b), &error);
  const TraceDiffResult diff = DiffCanonical(canon_a, canon_b);
  ASSERT_FALSE(diff.identical);
  EXPECT_EQ(diff.index, 1u);
  EXPECT_EQ(diff.field, "missing_event");
  EXPECT_EQ(diff.value_a, "<absent>");
}

TEST(TraceValidationTest, RejectsBadSchemas) {
  EXPECT_FALSE(ValidateChromeTrace("not json").ok);
  EXPECT_FALSE(ValidateChromeTrace("{}").ok);
  EXPECT_FALSE(ValidateChromeTrace(R"({"traceEvents": [{"ph": "Z"}]})").ok);
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents": [{"ph": "i", "ts": 1, "name": "x", "cat": "nope"}]})")
                   .ok);
  EXPECT_FALSE(
      ValidateChromeTrace(R"({"traceEvents": [{"ph": "b", "ts": 1, "name": "x", "cat": "rpc"}]})")
          .ok);
  EXPECT_TRUE(ValidateChromeTrace(R"({"traceEvents": []})").ok);
}

TEST(TraceSessionTest, FromArgsConsumesFlagAndEnables) {
  std::string arg0 = "bench";
  std::string arg1 = "--trace-out=/tmp/out.json";
  std::string arg2 = "--other";
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  int argc = 3;
  TraceSession session = TraceSession::FromArgs(&argc, argv);
  EXPECT_TRUE(session.enabled());
  EXPECT_NE(session.recorder(), nullptr);
  EXPECT_EQ(session.path(), "/tmp/out.json");
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--other");
}

TEST(TraceSessionTest, AbsentFlagMeansDisabled) {
  std::string arg0 = "bench";
  char* argv[] = {arg0.data(), nullptr};
  int argc = 1;
  TraceSession session = TraceSession::FromArgs(&argc, argv);
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.recorder(), nullptr);
  std::string error;
  EXPECT_TRUE(session.Export(&error));  // disabled export is a no-op success
  EXPECT_TRUE(error.empty());
}

}  // namespace
}  // namespace odyssey
