// Statistics and span helpers of the benchmark program (silobench.cc).
//
// Kept header-only and free of the silod library so selftest.cc can check
// them on hand-computed inputs:
//   - Percentile / TailPercentile: a timing is reported as its median and the
//     highest percentile of the ladder that still has at least ten samples
//     beyond it;
//   - FailRatio: failures counted against attempts;
//   - RepeatMin: a sample's minimum over the repeats of a deterministic run;
//   - SpanLog / SelfTimes: spans recorded in memory around each layer call,
//     and a span's self time as its duration minus the part of it that its
//     child spans cover.
#ifndef SILOD_PERFBENCH_BENCH_STATS_H_
#define SILOD_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace silod::perfbench {

// ceil(p% of n), with a tolerance so that e.g. 99.9% of 10000 is 9990.
inline std::size_t NearestRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-6);
  return rank <= 0 ? 0 : std::min(n, static_cast<std::size_t>(rank));
}

// Nearest-rank percentile (p in (0, 100]) of unsorted samples: the smallest
// sample with at least p% of the samples at or below it.  NaN when empty.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return std::nan("");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = NearestRank(samples.size(), p);
  const std::size_t index = rank < 1 ? 0 : rank - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Median(const std::vector<double>& samples) { return Percentile(samples, 50); }

// Samples strictly beyond the nearest-rank p-th percentile position.
inline std::size_t SamplesBeyond(std::size_t n, double p) { return n - NearestRank(n, p); }

// The highest percentile of {50, 90, 99, 99.9, 99.99} that has at least ten
// of `n` samples beyond it; 0 when not even the median qualifies.
inline double TailPercentile(std::size_t n) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(n, p) >= 10) {
      best = p;
    }
  }
  return best;
}

// Failed over attempted; 0 when nothing was attempted.
inline double FailRatio(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

// The element-wise minimum of a sample series over repeats of the same
// deterministic run: sample i of every repeat times the same work, so its
// spread over repeats is the host's noise, which only ever adds time, and the
// minimum is the estimate that noise moves least.
struct RepeatMin {
  int repeats = 0;
  std::vector<double> values;

  // Folds one repeat in.  False, and no change, when the repeat has another
  // number of samples than the earlier ones: the run did different work.
  bool Fold(const std::vector<double>& samples) {
    if (repeats == 0) {
      values = samples;
    } else if (samples.size() != values.size()) {
      return false;
    } else {
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = std::min(values[i], samples[i]);
      }
    }
    ++repeats;
    return true;
  }
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // Index into the log; -1 for a root span.
};

// Single-threaded in-memory span log.  Begin opens a span under the
// innermost open one; End closes it.
class SpanLog {
 public:
  int Begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }
  // Adds a finished span under `parent` (for tests and replays).
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span in ns: its duration minus the union of its
// children's intervals, clipped to the span.
inline std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

// Total self time per span name, in seconds.
inline std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> total;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return total;
}

}  // namespace silod::perfbench

#endif  // SILOD_PERFBENCH_BENCH_STATS_H_
