// Host-speed calibration of the benchmark program (silobench.cc).
//
// The benchmark runs on shared virtual machines whose speed moves by 15-40%
// in phases of seconds to minutes (README.md, Noise).  Such a phase moves
// every timing of a run, and no minimum over repeats inside one run can take
// it out.  So each measured trace run is bracketed by a fixed calibration
// kernel, timed on the same thread right before and right after it, and
// every time taken in that run is scaled by
//
//     kReferenceKernelSeconds / mean(kernel before, kernel after)
//
// which reads it as time on a host where the kernel takes the reference
// time.  The kernel is the benchmark's own code, built from this directory:
// a change to the program moves the scaled times exactly as much as the raw
// ones.
#ifndef SILOD_PERFBENCH_HOST_SPEED_H_
#define SILOD_PERFBENCH_HOST_SPEED_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "perfbench/bench_stats.h"

namespace silod::perfbench {

// About the kernel's time on the 4-vCPU Xeon VM of README.md's recorded
// numbers (3.5-4.5 ms there).
inline constexpr double kReferenceKernelSeconds = 0.004;

inline volatile std::uint64_t kernel_sink = 0;

// Times the calibration kernel once, in seconds: an ordered map built from
// and probed with pseudo-random keys, and a sort, the pointer-chasing,
// allocating and branchy mix the simulators spend their time on.  The work
// is the same on every call.
inline double KernelSeconds() {
  constexpr int kKeys = 6000;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint32_t>(x >> 16);
  };
  const std::int64_t t0 = NowNs();
  std::map<std::uint32_t, std::uint32_t> tree;
  for (int i = 0; i < kKeys; ++i) {
    tree[next()] += 1;
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kKeys; ++i) {
    const auto it = tree.lower_bound(next());
    sum += it == tree.end() ? 1 : it->second;
  }
  std::vector<std::uint32_t> values(4 * kKeys);
  for (std::uint32_t& v : values) {
    v = next();
  }
  std::sort(values.begin(), values.end());
  sum += values[values.size() / 2];
  const std::int64_t t1 = NowNs();
  kernel_sink = kernel_sink + sum;
  return static_cast<double>(t1 - t0) * 1e-9;
}

// The factor that turns a time measured between two kernel timings into
// reference-host time.
inline double SpeedScale(double kernel_before_s, double kernel_after_s) {
  return 2 * kReferenceKernelSeconds / (kernel_before_s + kernel_after_s);
}

}  // namespace silod::perfbench

#endif  // SILOD_PERFBENCH_HOST_SPEED_H_
