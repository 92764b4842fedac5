// Self-tests of the benchmark's statistics and calibration helpers (bench_stats.h,
// host_speed.h), on hand-computed inputs.  Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/host_speed.h"

namespace silod::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  Expect(Median(v) == 50, "median of 1..100 is 50 (nearest rank)");
  Expect(Percentile(v, 90) == 90, "p90 of 1..100 is 90");
  Expect(Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile({7}, 99) == 7, "any percentile of one sample is that sample");
  Expect(std::isnan(Percentile({}, 50)), "percentile of nothing is NaN");
}

void TestTailRule() {
  // Ten samples must lie beyond the reported percentile.
  Expect(SamplesBeyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  Expect(TailPercentile(19) == 0, "19 samples support no percentile");
  Expect(TailPercentile(20) == 50, "20 samples support the median only");
  Expect(TailPercentile(99) == 50, "99 samples leave 9 beyond p90");
  Expect(TailPercentile(100) == 90, "100 samples support p90");
  Expect(TailPercentile(999) == 90, "999 samples do not support p99");
  Expect(TailPercentile(1000) == 99, "1000 samples support p99");
  Expect(TailPercentile(10000) == 99.9, "10000 samples support p99.9");
  Expect(TailPercentile(100000) == 99.99, "100000 samples support p99.99");
}

void TestFailRatio() {
  Expect(FailRatio(0, 0) == 0, "nothing attempted, nothing failed");
  Expect(FailRatio(200, 0) == 0, "no failures");
  Expect(FailRatio(200, 50) == 0.25, "50 of 200 failed");
  Expect(FailRatio(3, 3) == 1, "all failed");
}

void TestRepeatMin() {
  RepeatMin m;
  Expect(m.Fold({5, 1, 7}), "first repeat is taken as is");
  Expect(m.Fold({4, 2, 9}), "second repeat of the same length folds");
  Expect(m.values == std::vector<double>({4, 1, 7}), "element-wise minimum");
  Expect(!m.Fold({1, 1}), "a repeat of another length is refused");
  Expect(m.repeats == 2 && m.values.size() == 3, "a refused repeat changes nothing");
  RepeatMin none;
  Expect(none.Fold({}) && !none.Fold({1}), "an empty first repeat fixes the length at 0");
}

void TestSelfTime() {
  SpanLog log;
  const int root = log.Add("engine.run", 0, 100, -1);
  log.Add("sched.schedule", 10, 30, root);
  log.Add("cache.lru_probe", 30, 35, root);
  const int nested = log.Add("sched.schedule", 50, 70, root);
  log.Add("inner", 55, 60, nested);
  // Overlapping child intervals count once; a child past the parent's end
  // is clipped.
  const int other = log.Add("serve.handle:submit", 200, 300, -1);
  log.Add("a", 210, 250, other);
  log.Add("b", 240, 260, other);
  log.Add("c", 290, 320, other);
  const std::vector<std::int64_t> self = SelfTimesNs(log.spans());
  Expect(self[0] == 100 - 20 - 5 - 20, "root minus its three children");
  Expect(self[3] == 20 - 5, "nested span minus its child");
  Expect(self[4] == 5, "leaf keeps its whole duration");
  Expect(self[5] == 100 - 50 - 10, "overlap counted once, overhang clipped");
  const auto by_name = SelfSecondsByName(log.spans());
  Expect(std::abs(by_name.at("sched.schedule") - 35e-9) < 1e-15, "self time summed by name");

  SpanLog live;
  const int outer = live.Begin("outer");
  const int inner = live.Begin("inner");
  live.End(inner);
  live.End(outer);
  Expect(live.spans()[1].parent == outer, "Begin nests under the open span");
  Expect(live.spans()[0].end_ns >= live.spans()[1].end_ns, "outer ends last");
}

void TestSpeedScale() {
  const double ref = kReferenceKernelSeconds;
  Expect(SpeedScale(ref, ref) == 1, "a host at reference speed keeps its times");
  Expect(SpeedScale(2 * ref, 2 * ref) == 0.5, "a host at half speed has its times halved");
  Expect(SpeedScale(ref, 3 * ref) == 0.5, "the two kernel timings are averaged");
  const double kernel = KernelSeconds();
  Expect(kernel > 0 && kernel < 1, "the kernel takes a measurable, short time");
}

}  // namespace
}  // namespace silod::perfbench

int main() {
  silod::perfbench::TestPercentile();
  silod::perfbench::TestTailRule();
  silod::perfbench::TestFailRatio();
  silod::perfbench::TestRepeatMin();
  silod::perfbench::TestSelfTime();
  silod::perfbench::TestSpeedScale();
  if (silod::perfbench::failures != 0) {
    std::printf("%d self-test(s) failed\n", silod::perfbench::failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
