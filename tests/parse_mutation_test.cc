// Mutation fuzzing of the parsers that read files from outside the process:
// ReplayTrace::Parse (waveform files), ParseArtifact (bench artifacts and
// committed baselines) and ParseJson (traces, and the artifact reader).
//
// A SplitMix64-seeded mutator edits valid texts — a serialized waveform, an
// artifact and an exported trace — with byte flips, truncation, insertion
// and duplicated spans, and every mutant goes to all three parsers.  Each
// must reject the input (false, an error Status, or an error string) or
// return a value that survives a write/re-parse round trip; none may crash,
// which the sanitizer build checks as well.  The run is a pure function of
// the seeds below, so a failure replays exactly.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/bench_artifact.h"
#include "src/harness/scenario_registry.h"
#include "src/sim/random.h"
#include "src/trace/chrome_trace_exporter.h"
#include "src/trace/trace_json.h"
#include "src/trace/trace_macros.h"
#include "src/trace/trace_recorder.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

constexpr int kMutantsPerSeed = 4000;

// Bytes the grammars give meaning to, so insertions reach past the first
// syntax check more often than uniformly random bytes would.
constexpr char kInteresting[] = "{}[]\",:\\-+.eE0123456789 \t\n#truefalsnu";

uint64_t Below(SplitMix64* mix, uint64_t bound) { return bound == 0 ? 0 : mix->Next() % bound; }

char RandomByte(SplitMix64* mix) {
  if (mix->Next() % 2 == 0) {
    return kInteresting[Below(mix, sizeof(kInteresting) - 1)];
  }
  return static_cast<char>(mix->Next() & 0xff);
}

// One to four edits: flip a byte, truncate, insert a byte, or duplicate a
// span at another position.
std::string Mutate(std::string text, SplitMix64* mix) {
  const uint64_t edits = 1 + Below(mix, 4);
  for (uint64_t i = 0; i < edits; ++i) {
    const size_t at = Below(mix, text.size() + 1);
    switch (mix->Next() % 4) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ static_cast<char>(1 + Below(mix, 255)));
        }
        break;
      case 1:
        text.resize(at);
        break;
      case 2:
        text.insert(at, 1, RandomByte(mix));
        break;
      default: {
        const size_t from = Below(mix, text.size() + 1);
        const size_t length = Below(mix, std::min<size_t>(text.size() - from, 64) + 1);
        text.insert(at, text.substr(from, length));
        break;
      }
    }
  }
  return text;
}

// A strict writer for the round trip: every number at full precision, and
// a non-finite one as "inf"/"nan", which no JSON reader may accept — so a
// parsed value the grammar cannot express fails the round trip.
void WriteJson(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      return;
    case JsonValue::Kind::kBool:
      out->append(value.bool_value() ? "true" : "false");
      return;
    case JsonValue::Kind::kNumber: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.17g", value.number_value());
      out->append(buffer);
      return;
    }
    case JsonValue::Kind::kString:
      out->append(JsonQuote(value.string_value()));
      return;
    case JsonValue::Kind::kArray: {
      out->append("[");
      const char* separator = "";
      for (const JsonValue& item : value.array_items()) {
        out->append(separator);
        WriteJson(item, out);
        separator = ",";
      }
      out->append("]");
      return;
    }
    case JsonValue::Kind::kObject: {
      out->append("{");
      const char* separator = "";
      for (const auto& [key, member] : value.object_members()) {
        out->append(separator);
        out->append(JsonQuote(key));
        out->append(":");
        WriteJson(member, out);
        separator = ",";
      }
      out->append("}");
      return;
    }
  }
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteJson(value, &out);
  return out;
}

// Feeds |text| to every parser and checks each accepted value's round trip.
void CheckAllParsers(const std::string& text) {
  ReplayTrace trace;
  if (ReplayTrace::Parse(text, &trace)) {
    const std::string written = trace.Serialize();
    ReplayTrace again;
    ASSERT_TRUE(ReplayTrace::Parse(written, &again)) << "input:\n" << text;
    EXPECT_EQ(again.Serialize(), written) << "input:\n" << text;
  }

  BenchArtifact artifact;
  if (ParseArtifact(text, &artifact).ok()) {
    const std::string written = ArtifactToJson(artifact);
    BenchArtifact again;
    const Status status = ParseArtifact(written, &again);
    ASSERT_TRUE(status.ok()) << status.message() << "\ninput:\n" << text;
    EXPECT_EQ(ArtifactToJson(again), written) << "input:\n" << text;
  }

  std::string error;
  const JsonValue value = ParseJson(text, &error);
  if (error.empty()) {
    const std::string written = WriteJson(value);
    std::string again_error;
    const JsonValue again = ParseJson(written, &again_error);
    ASSERT_TRUE(again_error.empty()) << again_error << "\ninput:\n" << text;
    EXPECT_EQ(WriteJson(again), written) << "input:\n" << text;
  }
}

std::string WaveformSeed() {
  ReplayTrace trace;
  trace.Append(2 * kSecond, 120.0 * 1024, 10 * kMillisecond);
  trace.Append(500 * kMillisecond, 0.0, 10 * kMillisecond);
  trace.Append(3 * kSecond, 40.5 * 1024, 25 * kMillisecond);
  return trace.Serialize();
}

std::string ArtifactSeed() {
  BenchArtifact artifact;
  artifact.campaign = "tier1";
  artifact.description = "mutation seed \"quoted\"";
  artifact.campaign_seed = 18446744073709551615ULL;
  artifact.trials = 10;
  MetricSummary settle{"fig08_supply", "step_up", "settle_s", MetricDirection::kLowerIsBetter,
                       {}};
  settle.stats = {5, 1.25, 0.125, 1.0, 1.5, 1.25, 1.5, 1.5};
  MetricSummary upcalls{"fig08_supply", "step_up", "upcalls", MetricDirection::kEither, {}};
  upcalls.stats = {5, 12.0, 0.0, 12.0, 12.0, 12.0, 12.0, 1.5e300};
  artifact.metrics = {settle, upcalls};
  return ArtifactToJson(artifact);
}

std::string TraceSeed() {
  TraceRecorder recorder(64);
  const uint64_t span = recorder.NextSpanId();
  ODY_TRACE_BEGIN1(&recorder, kRpc, "call", 10, span, "bytes", 100);
  ODY_TRACE_END1(&recorder, kRpc, "call", 20, span, "rtt_us", 10.5);
  ODY_TRACE_INSTANT1(&recorder, kApp, "adapt", 15, 3, "level", 81920.25);
  ODY_TRACE_COUNTER(&recorder, kEstimator, "supply_bps", 25, 0, 2.5e-300);
  return ChromeTraceExporter::ToJson(recorder);
}

TEST(ParseMutationTest, SeedsParseAndRoundTrip) {
  for (const std::string& seed : {WaveformSeed(), ArtifactSeed(), TraceSeed()}) {
    CheckAllParsers(seed);
  }
  ReplayTrace trace;
  EXPECT_TRUE(ReplayTrace::Parse(WaveformSeed(), &trace));
  BenchArtifact artifact;
  EXPECT_TRUE(ParseArtifact(ArtifactSeed(), &artifact).ok());
  std::string error;
  ParseJson(TraceSeed(), &error);
  EXPECT_EQ(error, "");
}

TEST(ParseMutationTest, MutantsAreRejectedOrRoundTrip) {
  const std::pair<uint64_t, std::string> seeds[] = {
      {1, WaveformSeed()}, {2, ArtifactSeed()}, {3, TraceSeed()}};
  for (const auto& [stream, seed] : seeds) {
    SplitMix64 mix(0x6d7574616e74ULL ^ stream);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      SCOPED_TRACE(testing::Message() << "stream " << stream << " mutant " << i);
      CheckAllParsers(Mutate(seed, &mix));
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Inputs the mutator found, pinned so they stay fixed.
TEST(ParseMutationTest, PinnedFindings) {
  // Stream 2, mutant 3160 grew an artifact's "1.5000000000000001e+300" to
  // "e+3100": strtod read it as infinity, which ParseJson accepted although
  // no JSON text can carry it back (the exporter writes it as 0).
  for (const char* text : {"{\"p99\": 1.5000000000000001e+3100}", "[-1e400]", "1e999"}) {
    std::string error;
    ParseJson(text, &error);
    EXPECT_NE(error, "") << text;
    CheckAllParsers(text);
  }
}

}  // namespace
}  // namespace odyssey
