// Unit tests for replay traces and the paper's reference waveforms.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/tracemod/replay_trace.h"
#include "src/tracemod/waveforms.h"

namespace odyssey {
namespace {

TEST(ReplayTraceTest, EmptyTraceYieldsZeroSegment) {
  ReplayTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.TotalDuration(), 0);
  EXPECT_DOUBLE_EQ(trace.At(5 * kSecond).bandwidth_bps, 0.0);
}

TEST(ReplayTraceTest, AtSelectsSegmentByTime) {
  ReplayTrace trace;
  trace.Append(10 * kSecond, 100.0, 1000);
  trace.Append(20 * kSecond, 200.0, 2000);
  EXPECT_DOUBLE_EQ(trace.At(0).bandwidth_bps, 100.0);
  EXPECT_DOUBLE_EQ(trace.At(10 * kSecond - 1).bandwidth_bps, 100.0);
  EXPECT_DOUBLE_EQ(trace.At(10 * kSecond).bandwidth_bps, 200.0);
  EXPECT_DOUBLE_EQ(trace.At(29 * kSecond).bandwidth_bps, 200.0);
}

TEST(ReplayTraceTest, PastEndHoldsFinalSegment) {
  ReplayTrace trace;
  trace.Append(10 * kSecond, 100.0, 1000);
  EXPECT_DOUBLE_EQ(trace.At(1000 * kSecond).bandwidth_bps, 100.0);
  EXPECT_EQ(trace.At(1000 * kSecond).latency, 1000);
}

TEST(ReplayTraceTest, TotalDurationSumsSegments) {
  ReplayTrace trace;
  trace.Append(10 * kSecond, 1.0, 0);
  trace.Append(5 * kSecond, 2.0, 0);
  EXPECT_EQ(trace.TotalDuration(), 15 * kSecond);
}

TEST(ReplayTraceTest, IntegralBytesSumsSegmentAreas) {
  ReplayTrace trace;
  trace.Append(10 * kSecond, 100.0, 0);
  trace.Append(20 * kSecond, 200.0, 0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(0), 0.0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(5 * kSecond), 500.0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(10 * kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(30 * kSecond), 1000.0 + 4000.0);
}

TEST(ReplayTraceTest, IntegralBytesFinalSegmentPersists) {
  // Past the end of the trace the final segment's bandwidth keeps accruing,
  // matching the At() rule and the modulation daemon's behaviour.
  ReplayTrace trace;
  trace.Append(10 * kSecond, 100.0, 0);
  trace.Append(10 * kSecond, 50.0, 0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(40 * kSecond), 1000.0 + 500.0 + 20.0 * 50.0);
}

TEST(ReplayTraceTest, IntegralBytesZeroWidthSegmentsContributeNothing) {
  ReplayTrace trace;
  trace.Append(kSecond, 100.0, 0);
  trace.Append(0, 1.0e9, 0);  // zero width: no area regardless of bandwidth
  trace.Append(kSecond, 100.0, 0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(2 * kSecond), 200.0);
  // A zero-width *final* segment still persists past the end (At() rule).
  ReplayTrace tail;
  tail.Append(kSecond, 100.0, 0);
  tail.Append(0, 10.0, 0);
  EXPECT_DOUBLE_EQ(tail.IntegralBytes(2 * kSecond), 100.0 + 10.0);
}

TEST(ReplayTraceTest, IntegralBytesZeroBandwidthShadowIsFlat) {
  ReplayTrace trace;
  trace.Append(kSecond, 100.0, 0);
  trace.Append(5 * kSecond, 0.0, 0);  // radio shadow
  trace.Append(kSecond, 100.0, 0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(6 * kSecond), 100.0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(7 * kSecond), 200.0);
}

TEST(ReplayTraceTest, IntegralBytesEmptyTraceIsZero) {
  ReplayTrace trace;
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(100 * kSecond), 0.0);
}

TEST(ReplayTraceTest, IntegralBytesMatchesHandComputation) {
  const ReplayTrace trace({TraceSegment{10 * kSecond, 1000.0, 0},
                           TraceSegment{5 * kSecond, 2000.0, 0}});
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(10 * kSecond), 10000.0);
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(15 * kSecond), 20000.0);
  // Past the end of the trace the final segment persists (Modulator
  // semantics), so the bound keeps growing at the last segment's rate.
  EXPECT_DOUBLE_EQ(trace.IntegralBytes(20 * kSecond), 30000.0);
}

// Expects |cursor| to agree with |trace|.IntegralBytes at each of |instants|,
// bit for bit, asked in the given order.
void ExpectCursorMatches(const ReplayTrace& trace, const std::vector<Time>& instants) {
  IntegralCursor cursor(&trace);
  for (const Time t : instants) {
    ASSERT_EQ(std::bit_cast<uint64_t>(cursor.IntegralBytes(t)),
              std::bit_cast<uint64_t>(trace.IntegralBytes(t)))
        << "at " << t << "us over " << trace.segments().size() << " segments";
  }
}

TEST(IntegralCursorTest, MatchesIntegralBytesOnBoundariesAndPastTheEnd) {
  ReplayTrace trace;
  trace.Append(0, 900.0, 0);  // zero-duration lead-in
  trace.Append(3 * kSecond, 123.456, 0);
  trace.Append(0, 77.0, 0);
  trace.Append(0, 88.0, 0);
  trace.Append(kSecond / 3, 0.0, 0);  // shadow
  trace.Append(2 * kSecond, 1e5 / 3.0, 0);
  std::vector<Time> instants = {0, 0, 1};
  Time boundary = 0;
  for (const TraceSegment& segment : trace.segments()) {
    boundary += segment.duration;
    instants.insert(instants.end(), {boundary - 1, boundary, boundary, boundary + 1});
  }
  instants.insert(instants.end(), {boundary + kSecond, 100 * kSecond});
  ExpectCursorMatches(trace, instants);
}

TEST(IntegralCursorTest, RestartsWhenTimeGoesBackwards) {
  ReplayTrace trace;
  trace.Append(kSecond, 10.0, 0).Append(kSecond, 0.1, 0).Append(kSecond, 1e-3, 0);
  ExpectCursorMatches(trace, {2500 * kMillisecond, 500 * kMillisecond, 10 * kSecond, 0,
                              kSecond, kSecond, 3 * kSecond, 2 * kSecond + 1});
}

TEST(IntegralCursorTest, EmptyTraceIsZero) {
  ExpectCursorMatches(ReplayTrace(), {0, kSecond, 0, 5 * kSecond});
}

TEST(IntegralCursorTest, MatchesIntegralBytesOnRandomWaveforms) {
  std::mt19937_64 rng(25);
  for (int round = 0; round < 200; ++round) {
    ReplayTrace trace;
    const int segments = static_cast<int>(rng() % 12);
    Time total = 0;
    for (int i = 0; i < segments; ++i) {
      // About one segment in four has zero duration; bandwidths carry
      // fractional bits so the order of the additions shows.
      const Duration duration = rng() % 4 == 0 ? 0 : static_cast<Duration>(rng() % (3 * kSecond));
      const double bandwidth = std::ldexp(static_cast<double>(rng() % 1000000), -7);
      trace.Append(duration, bandwidth, 0);
      total += duration;
    }
    std::vector<Time> instants;
    for (int i = 0; i < 40; ++i) {
      const uint64_t pick = rng() % 8;
      if (pick == 0 && !instants.empty()) {
        instants.push_back(instants.back());  // the same instant again
      } else if (pick == 1 && !trace.empty()) {
        // A segment boundary.
        Time boundary = 0;
        const size_t end = rng() % (trace.segments().size() + 1);
        for (size_t j = 0; j < end; ++j) {
          boundary += trace.segments()[j].duration;
        }
        instants.push_back(boundary);
      } else if (pick == 2) {
        instants.push_back(static_cast<Time>(rng() % (total + 1)));  // may go backwards
      } else {
        // Mostly forward steps, some past the end.
        const Time last = instants.empty() ? 0 : instants.back();
        instants.push_back(last + static_cast<Time>(rng() % (kSecond / 2)));
      }
    }
    ExpectCursorMatches(trace, instants);
  }
}

TEST(ReplayTraceTest, WithPrimingPrefixesFirstSegment) {
  ReplayTrace trace = MakeStepUp();
  ReplayTrace primed = trace.WithPriming(30 * kSecond);
  EXPECT_EQ(primed.TotalDuration(), trace.TotalDuration() + 30 * kSecond);
  EXPECT_DOUBLE_EQ(primed.At(0).bandwidth_bps, kLowBandwidth);
  EXPECT_DOUBLE_EQ(primed.At(59 * kSecond).bandwidth_bps, kLowBandwidth);
  EXPECT_DOUBLE_EQ(primed.At(61 * kSecond).bandwidth_bps, kHighBandwidth);
}

TEST(ReplayTraceTest, PrimingEmptyTraceIsEmpty) {
  ReplayTrace trace;
  EXPECT_TRUE(trace.WithPriming(kSecond).empty());
}

TEST(ReplayTraceTest, ConcatJoinsSegments) {
  ReplayTrace a = MakeConstant(100.0, kSecond);
  ReplayTrace b = MakeConstant(200.0, kSecond);
  ReplayTrace joined = a.Concat(b);
  EXPECT_EQ(joined.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(joined.At(0).bandwidth_bps, 100.0);
  EXPECT_DOUBLE_EQ(joined.At(kSecond + 1).bandwidth_bps, 200.0);
}

TEST(ReplayTraceTest, ScaledBandwidthScalesOnlyBandwidth) {
  ReplayTrace trace = MakeConstant(100.0, kSecond, 777);
  ReplayTrace scaled = trace.ScaledBandwidth(2.5);
  EXPECT_DOUBLE_EQ(scaled.At(0).bandwidth_bps, 250.0);
  EXPECT_EQ(scaled.At(0).latency, 777);
  EXPECT_EQ(scaled.TotalDuration(), kSecond);
}

TEST(ReplayTraceTest, SerializeParseRoundTrip) {
  ReplayTrace trace = MakeUrbanScenario();
  ReplayTrace parsed;
  ASSERT_TRUE(ReplayTrace::Parse(trace.Serialize(), &parsed));
  EXPECT_EQ(parsed, trace);
}

// 0.1 * 3.0 * 1024 is 307.20000000000005: its 15-digit text reads back
// as 307.2, so Serialize falls back to 17 digits for it and only for it.
TEST(ReplayTraceTest, SerializeRoundTripsABandwidthThatNeedsSeventeenDigits) {
  ReplayTrace trace;
  trace.Append(kSecond, 0.1 * 3.0 * 1024, 500).Append(kSecond, 307.2, 500);
  const std::string text = trace.Serialize();
  ReplayTrace parsed;
  ASSERT_TRUE(ReplayTrace::Parse(text, &parsed));
  EXPECT_EQ(parsed, trace);
  EXPECT_NE(text.find("1 307.20000000000005 500\n"), std::string::npos) << text;
  EXPECT_NE(text.find("1 307.2 500\n"), std::string::npos) << text;
}

TEST(ReplayTraceTest, ParseIgnoresCommentsAndBlanks) {
  ReplayTrace parsed;
  ASSERT_TRUE(ReplayTrace::Parse("# comment\n\n1.5 1000 250  # trailing\n", &parsed));
  ASSERT_EQ(parsed.segments().size(), 1u);
  EXPECT_EQ(parsed.segments()[0].duration, SecondsToDuration(1.5));
  EXPECT_DOUBLE_EQ(parsed.segments()[0].bandwidth_bps, 1000.0);
  EXPECT_EQ(parsed.segments()[0].latency, 250);
}

TEST(ReplayTraceTest, ParseRejectsMalformedLines) {
  ReplayTrace parsed;
  EXPECT_FALSE(ReplayTrace::Parse("1.0 only-two\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("-1.0 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("1.0 -100 0\n", &parsed));
}

TEST(ReplayTraceTest, ParseRejectsAnUnparsableFirstField) {
  ReplayTrace parsed;
  // An overflowing first number is malformed, not a blank line to skip.
  EXPECT_FALSE(ReplayTrace::Parse("1.0 100 0\n1e999 40960 10\n2.0 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("abc 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("  -\t # only a sign\n", &parsed));
  // Whitespace-only and comment-only lines are still skipped.
  ASSERT_TRUE(ReplayTrace::Parse(" \t\r\n   # note\n1.0 100 0\n", &parsed));
  EXPECT_EQ(parsed.segments().size(), 1u);
}

TEST(ReplayTraceTest, ParseRejectsNonFiniteValues) {
  ReplayTrace parsed;
  EXPECT_FALSE(ReplayTrace::Parse("inf 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("nan 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("1.0 inf 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("1.0 nan 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("1.0 1e999 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("1.0 100 99999999999999999999\n", &parsed));
}

TEST(ReplayTraceTest, ParseRejectsDurationsPastTheTimeRange) {
  ReplayTrace parsed;
  // One segment longer than the int64 microsecond range.
  EXPECT_FALSE(ReplayTrace::Parse("1e13 100 0\n", &parsed));
  EXPECT_FALSE(ReplayTrace::Parse("9.3e12 100 0\n", &parsed));
  // Segments that fit alone but overflow together.
  EXPECT_FALSE(ReplayTrace::Parse("4e12 100 0\n4e12 100 0\n", &parsed));
  // A long trace inside the range parses, and At()/IntegralBytes() past its
  // end stay finite.
  ASSERT_TRUE(ReplayTrace::Parse("4e12 100 0\n1 200 5\n", &parsed));
  EXPECT_EQ(parsed.TotalDuration(), SecondsToDuration(4e12) + kSecond);
  EXPECT_EQ(parsed.At(parsed.TotalDuration()).latency, 5);
  EXPECT_TRUE(std::isfinite(parsed.IntegralBytes(parsed.TotalDuration() + kSecond)));
}

// --- Figure 7: the reference waveforms ---

TEST(WaveformTest, StepUpShape) {
  ReplayTrace trace = MakeStepUp();
  EXPECT_EQ(trace.TotalDuration(), kWaveformLength);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(0), kLowBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(29 * kSecond), kLowBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(30 * kSecond), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(59 * kSecond), kHighBandwidth);
}

TEST(WaveformTest, StepDownShape) {
  ReplayTrace trace = MakeStepDown();
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(0), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(31 * kSecond), kLowBandwidth);
}

TEST(WaveformTest, ImpulseUpIsTwoSecondsWide) {
  ReplayTrace trace = MakeImpulseUp();
  EXPECT_EQ(trace.TotalDuration(), kWaveformLength);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(28 * kSecond), kLowBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(29 * kSecond), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(30 * kSecond), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(31 * kSecond), kLowBandwidth);
}

TEST(WaveformTest, ImpulseDownIsTwoSecondsWide) {
  ReplayTrace trace = MakeImpulseDown();
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(28 * kSecond), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(30 * kSecond), kLowBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(31 * kSecond), kHighBandwidth);
}

TEST(WaveformTest, AllWaveformsHaveNames) {
  EXPECT_EQ(WaveformName(Waveform::kImpulseDown), "impulse_down");
  for (const Waveform waveform : AllWaveforms()) {
    EXPECT_FALSE(WaveformName(waveform).empty());
    EXPECT_EQ(MakeWaveform(waveform).TotalDuration(), kWaveformLength);
  }
}

TEST(WaveformTest, CustomParamsRespected) {
  WaveformParams params;
  params.high_bps = 500.0;
  params.low_bps = 50.0;
  params.length = 10 * kSecond;
  params.impulse_width = 4 * kSecond;
  ReplayTrace trace = MakeImpulseUp(params);
  EXPECT_EQ(trace.TotalDuration(), 10 * kSecond);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(5 * kSecond), 500.0);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(1 * kSecond), 50.0);
}

// --- Figure 13: the urban scenario ---

TEST(UrbanScenarioTest, FifteenMinutesTotal) {
  ReplayTrace trace = MakeUrbanScenario();
  EXPECT_EQ(trace.TotalDuration(), 15 * kMinute);
  EXPECT_EQ(trace.segments().size(), 9u);
}

TEST(UrbanScenarioTest, StartsAndEndsWellConnected) {
  ReplayTrace trace = MakeUrbanScenario();
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(0), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(15 * kMinute - 1), kHighBandwidth);
  // The final well-connected stretch is 4 minutes.
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(11 * kMinute + 1), kHighBandwidth);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(11 * kMinute - 1), kLowBandwidth);
}

TEST(UrbanScenarioTest, SegmentMinutesMatchFigure13) {
  ReplayTrace trace = MakeUrbanScenario();
  const int expected_minutes[] = {3, 1, 1, 1, 2, 1, 1, 1, 4};
  for (size_t i = 0; i < trace.segments().size(); ++i) {
    EXPECT_EQ(trace.segments()[i].duration, expected_minutes[i] * kMinute) << "segment " << i;
  }
}

TEST(EthernetBaselineTest, FastAndFlat) {
  ReplayTrace trace = MakeEthernetBaseline(kMinute);
  EXPECT_EQ(trace.TotalDuration(), kMinute);
  EXPECT_GT(trace.BandwidthAt(0), 8.0 * kHighBandwidth);
}

}  // namespace
}  // namespace odyssey
