// Unit tests for src/common: units, RNG, status, stats, bitset, table,
// backoff, bisection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/backoff.h"
#include "src/common/bisect.h"
#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/topology.h"
#include "src/common/units.h"

namespace silod {
namespace {

// ------------------------------------------------------------------ Units --

TEST(Units, DecimalConstructors) {
  EXPECT_EQ(MB(1), 1'000'000);
  EXPECT_EQ(GB(143), 143'000'000'000LL);
  EXPECT_EQ(TB(1.36), 1'360'000'000'000LL);
  EXPECT_DOUBLE_EQ(ToGB(GB(660)), 660.0);
  EXPECT_DOUBLE_EQ(ToMBps(MBps(114)), 114.0);
}

TEST(Units, GbpsIsBits) {
  // 1.6 Gbps = 200 MB/s (Table 5's micro-benchmark limit).
  EXPECT_DOUBLE_EQ(ToMBps(Gbps(1.6)), 200.0);
  EXPECT_DOUBLE_EQ(ToGbps(Gbps(120)), 120.0);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Minutes(10), 600.0);
  EXPECT_DOUBLE_EQ(Hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
  EXPECT_DOUBLE_EQ(ToMinutes(Minutes(37.5)), 37.5);
}

// -------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowIsUniformish) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBelow(10)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    sum += rng.Exponential(0.5);
  }
  EXPECT_NEAR(sum / kDraws, 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) {
    stat.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(15);
  SampleSet set;
  for (int i = 0; i < 100000; ++i) {
    set.Add(rng.LogNormal(std::log(30.0), 1.6));
  }
  EXPECT_NEAR(set.Median(), 30.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(19);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[static_cast<std::size_t>(i)] = i;
  }
  rng.Shuffle(v);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    fixed += v[static_cast<std::size_t>(i)] == i ? 1 : 0;
  }
  EXPECT_LT(fixed, 10);  // Expected ~1 fixed point.
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// ----------------------------------------------------------------- Status --

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("dataset 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: dataset 7");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Stats --

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, EmptyEdges) {
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 0.0);
  EXPECT_TRUE(s.Cdf(10).empty());
}

TEST(SampleSet, SingleSampleAllPercentiles) {
  SampleSet s;
  s.Add(7.25);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.Percentile(p), 7.25);
  }
  const auto cdf = s.Cdf(3);
  ASSERT_EQ(cdf.size(), 3u);
  for (const auto& [value, frac] : cdf) {
    EXPECT_DOUBLE_EQ(value, 7.25);
    EXPECT_DOUBLE_EQ(frac, 1.0);
  }
}

TEST(SampleSet, DuplicateHeavyPercentiles) {
  // 90 copies of 5.0 plus a small tail; interpolation must stay on the
  // plateau for every percentile that lands inside it.
  SampleSet s;
  for (int i = 0; i < 90; ++i) {
    s.Add(5.0);
  }
  for (double x : {1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(60), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(93), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 11.0);
  // Unsorted insertion order must not leak into the CDF: it is sorted and
  // monotone even though the tail values straddle the plateau.
  const auto cdf = s.Cdf(25);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
}

TEST(SampleSet, ExtremePercentilesAreMinMax) {
  SampleSet s;
  for (double x : {9.0, -3.0, 4.5, 0.0, 2.25}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 9.0);
}

TEST(SampleSet, CdfMonotone) {
  SampleSet s;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.NextDouble());
  }
  const auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeries, ValueAtPiecewiseConstant) {
  TimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(10, 3.0);
  ts.Record(20, 2.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(-1), 0.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(9.99), 1.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(10), 3.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(100), 2.0);
}

TEST(TimeSeries, TimeAverage) {
  TimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(10, 3.0);
  // [0,10): 1.0, [10,20): 3.0 -> average 2.0 over [0,20).
  EXPECT_DOUBLE_EQ(ts.TimeAverage(0, 20), 2.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(10, 20), 3.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(5, 15), 2.0);
}

TEST(TimeSeries, TimeAverageFromBeforeFirstPoint) {
  // Before the first recording the series reads 0, and that span must be
  // weighted into the average, not skipped.
  TimeSeries ts;
  ts.Record(10, 2.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(0, 20), 1.0);   // [0,10): 0, [10,20): 2.
  EXPECT_DOUBLE_EQ(ts.TimeAverage(-10, 10), 0.0); // Entirely before.
  EXPECT_DOUBLE_EQ(ts.TimeAverage(5, 25), 1.5);   // [5,10): 0, [10,25): 2.
}

TEST(TimeSeries, RecordSameTimeOverwrites) {
  TimeSeries ts;
  ts.Record(5, 1.0);
  ts.Record(5, 2.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.ValueAt(5), 2.0);
}

TEST(TimeSeries, Downsample) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) {
    ts.Record(i, i);
  }
  const auto points = ts.Downsample(10);
  ASSERT_EQ(points.size(), 10u);
  EXPECT_DOUBLE_EQ(points.front().first, 0.0);
  EXPECT_DOUBLE_EQ(points.back().first, 999.0);
}

// ----------------------------------------------------------------- Bitset --

TEST(DynamicBitset, SetResetCount) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.Set(0));
  EXPECT_TRUE(bits.Set(63));
  EXPECT_TRUE(bits.Set(64));
  EXPECT_TRUE(bits.Set(199));
  EXPECT_FALSE(bits.Set(0));  // Already set.
  EXPECT_EQ(bits.Count(), 4u);
  EXPECT_TRUE(bits.Test(63));
  EXPECT_FALSE(bits.Test(62));
  EXPECT_TRUE(bits.Reset(63));
  EXPECT_FALSE(bits.Reset(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(DynamicBitset, IncrementalCountMatchesPopcount) {
  DynamicBitset bits(5000);
  Rng rng(29);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t idx = static_cast<std::size_t>(rng.NextBelow(5000));
    if (rng.NextDouble() < 0.6) {
      bits.Set(idx);
    } else {
      bits.Reset(idx);
    }
  }
  EXPECT_EQ(bits.Count(), bits.RecountSlow());
}

TEST(DynamicBitset, ClearAll) {
  DynamicBitset bits(100);
  for (std::size_t i = 0; i < 100; i += 3) {
    bits.Set(i);
  }
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_EQ(bits.RecountSlow(), 0u);
}


// ---------------------------------------------------------------- Logging --

TEST(Logging, CheckFailureAborts) {
  EXPECT_DEATH({ SILOD_CHECK(1 == 2) << "impossible arithmetic"; }, "Check failed");
}

TEST(Logging, LevelsFilter) {
  const LogLevel saved = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SILOD_LOG(Info) << "suppressed";  // Must not crash; output filtered.
  SetMinLogLevel(saved);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "I");
  EXPECT_STREQ(LogLevelName(LogLevel::kFatal), "F");
}

// ------------------------------------------------------------------ Table --

TEST(Table, FmtFormats) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(42.0, 0), "42");
  EXPECT_EQ(FmtSci(0.000095, 1), "9.5e-05");
}

// ------------------------------------------------------------------ Bisect --

// The bracket every one of `steps` halvings leaves, with no early stop.
template <typename Below>
Bracket FullBisect(double lo, double hi, int steps, Below below) {
  for (int step = 0; step < steps; ++step) {
    const double mid = 0.5 * (lo + hi);
    (below(mid) ? lo : hi) = mid;
  }
  return {lo, hi};
}

TEST(Bisect, BracketStopMatchesFullStepBisection) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const double hi = std::exp(rng.Uniform(-30, 30));
    // Thresholds inside the bracket, at and beyond its ends.
    const double threshold = trial % 50 == 0 ? 0.0 : trial % 50 == 1 ? 2 * hi : rng.Uniform(0, hi);
    // A monotone predicate and one whose answer flips with low-order bits of
    // the midpoint, so it is not monotone anywhere near the bracket's scale.
    auto monotone = [&](double x) { return x < threshold; };
    auto jagged = [&](double x) { return std::fmod(x / hi * 1e9, 2.0) < 1.0; };
    for (int steps : {1, 40, 80, 200}) {
      int calls = 0;
      const Bracket got = Bisect(0.0, hi, steps, [&](double x) {
        ++calls;
        return monotone(x);
      });
      const Bracket want = FullBisect(0.0, hi, steps, monotone);
      EXPECT_EQ(got.lo, want.lo) << trial << " " << steps;
      EXPECT_EQ(got.hi, want.hi) << trial << " " << steps;
      if (steps == 200 && threshold > 0) {
        // (At threshold 0, hi halves toward 0 through the subnormals, and
        // every one of the 200 steps moves it.)
        EXPECT_LT(calls, 80) << "the stop never fired";
      }
      const Bracket got_jagged = Bisect(0.0, hi, steps, jagged);
      const Bracket want_jagged = FullBisect(0.0, hi, steps, jagged);
      EXPECT_EQ(got_jagged.lo, want_jagged.lo) << trial << " " << steps;
      EXPECT_EQ(got_jagged.hi, want_jagged.hi) << trial << " " << steps;
    }
  }
}

// --------------------------------------------------------------- Topology --

TEST(Topology, ParseToSpecRoundTrip) {
  const Result<ClusterTopology> parsed =
      ClusterTopology::Parse("rack0=0-3;rack1=4-7;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_zones(), 2);
  EXPECT_EQ(parsed->zones()[0].name, "rack0");
  EXPECT_EQ(parsed->zones()[1].first_server, 4);
  EXPECT_DOUBLE_EQ(parsed->loss_bound(), 0.25);

  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, ParseRejectsOverlapAndBadBound) {
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;b=2-5").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=3-1").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;loss-bound=1.5").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;a=4-7").ok());
}

TEST(Topology, GpuTypeParseAndRoundTrip) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse(
      "rack0=0-3;gpu-type name=v100 count=64 speed=1;gpu-type name=k80 count=32 speed=0.45");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->has_gpu_types());
  ASSERT_EQ(parsed->gpu_types().size(), 2u);
  EXPECT_EQ(parsed->gpu_types()[0].name, "v100");
  EXPECT_EQ(parsed->gpu_types()[1].count, 32);
  EXPECT_DOUBLE_EQ(parsed->gpu_types()[1].speed, 0.45);
  EXPECT_EQ(parsed->GpuTypeIndex("k80"), 1);
  EXPECT_EQ(parsed->GpuTypeIndex("a100"), -1);
  EXPECT_EQ(parsed->TotalTypedGpus(), 96);

  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, GpuTypeOnlySpecRoundTripsWithoutZones) {
  const Result<ClusterTopology> parsed =
      ClusterTopology::Parse("gpu-type name=a100 count=8 speed=2.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());  // No failure zones...
  EXPECT_TRUE(parsed->has_gpu_types());  // ...but a typed fleet.
  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, GpuTypeSpeedSurvivesToSpecExactly) {
  // 0.1 has no exact binary representation; the spec must still round-trip the
  // speed bit-for-bit (FormatSpeed falls back to %.17g when %g is lossy).
  ClusterTopology typed =
      *ClusterTopology::Parse("gpu-type name=t count=4 speed=0.30000000000000004");
  const Result<ClusterTopology> again = ClusterTopology::Parse(typed.ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->gpu_types()[0].speed, 0.1 + 0.2);
}

TEST(Topology, GpuTypeParseRejectsMalformedEntries) {
  // {spec, why it must be rejected}
  const char* kRejects[] = {
      "gpu-type count=4 speed=1",                                // missing name
      "gpu-type name=v100 speed=1",                              // missing count
      "gpu-type name=v100 count=0 speed=1",                      // zero count
      "gpu-type name=v100 count=-2 speed=1",                     // negative count
      "gpu-type name=v100 count=4 speed=0",                      // zero speed
      "gpu-type name=v100 count=4 speed=-1",                     // negative speed
      "gpu-type name=v100 count=4 speed=fast",                   // non-numeric speed
      "gpu-type name=v100 count=many speed=1",                   // non-numeric count
      "gpu-type name=v100 count=4 flavor=large",                 // unknown key
      "gpu-type name=v100 count=4;gpu-type name=v100 count=2",   // duplicate name
  };
  for (const char* spec : kRejects) {
    EXPECT_FALSE(ClusterTopology::Parse(spec).ok()) << spec;
  }
}

TEST(Topology, CoverAddsSingletonZonesForUncoveredServers) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Covers(6));
  EXPECT_EQ(parsed->ZoneOf(5), -1);

  const ClusterTopology covered = parsed->Cover(6);
  EXPECT_TRUE(covered.Covers(6));
  ASSERT_EQ(covered.num_zones(), 3);
  EXPECT_EQ(covered.zones()[1].name, "srv4");
  EXPECT_EQ(covered.zones()[2].size(), 1);
  EXPECT_EQ(covered.ZoneOf(2), 0);
  EXPECT_EQ(covered.ZoneOf(5), 2);
  // Identity when already covering.
  EXPECT_EQ(covered.Cover(6), covered);
}

TEST(Topology, ValidateRejectsOutOfRangeZones) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;rack1=4-7");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Validate(8).ok());
  EXPECT_FALSE(parsed->Validate(6).ok());
}

// ---------------------------------------------------------------- Backoff --

TEST(Backoff, JitterlessSequenceIsExactlyBaseTimesPowersCapped) {
  BackoffOptions options;
  options.base = 0.002;
  options.cap = 0.1;
  Backoff backoff(options);
  // base, base*2, base*4, ... capped at 0.1 — bit-identical to the
  // historical loader retry loop (first delay == base).
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.002);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.004);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.008);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.016);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.032);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.064);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.1);  // 0.128 capped.
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.1);  // Stays at the cap.
  EXPECT_FALSE(backoff.exhausted());           // max_attempts == 0: unbounded.
}

TEST(Backoff, MaxAttemptsExhaustsAndResetRestarts) {
  BackoffOptions options;
  options.base = 0.01;
  options.cap = 1.0;
  options.max_attempts = 3;
  Backoff backoff(options);
  EXPECT_FALSE(backoff.exhausted());
  backoff.NextDelay();
  backoff.NextDelay();
  EXPECT_FALSE(backoff.exhausted());
  backoff.NextDelay();
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_EQ(backoff.attempts(), 3);
  backoff.Reset();
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.01);  // Back to the base.
}

TEST(Backoff, JitterScalesEachDelayWithinTheHalfWidth) {
  BackoffOptions options;
  options.base = 0.01;
  options.cap = 10.0;
  options.jitter = 0.25;
  Rng rng(42);
  Backoff backoff(options, &rng);
  double expected_center = 0.01;
  for (int i = 0; i < 8; ++i) {
    const Seconds delay = backoff.NextDelay();
    EXPECT_GE(delay, expected_center * 0.75) << "attempt " << i;
    EXPECT_LE(delay, expected_center * 1.25) << "attempt " << i;
    expected_center *= 2;
  }
}

TEST(Backoff, JitterIsDeterministicPerRngSeed) {
  BackoffOptions options;
  options.jitter = 0.5;
  Rng rng_a(7);
  Rng rng_b(7);
  Backoff a(options, &rng_a);
  Backoff b(options, &rng_b);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelay(), b.NextDelay()) << "attempt " << i;
  }
}

}  // namespace
}  // namespace silod
