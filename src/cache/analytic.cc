#include "src/cache/analytic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/bisect.h"
#include "src/common/logging.h"

namespace silod {

double UniformHitRatio(Bytes cache, Bytes dataset) {
  SILOD_CHECK(dataset > 0) << "dataset size must be positive";
  SILOD_CHECK(cache >= 0) << "cache size must be nonnegative";
  return std::min(1.0, static_cast<double>(cache) / static_cast<double>(dataset));
}

double LruScanHitFromFraction(double fraction) {
  SILOD_CHECK(fraction >= 0) << "negative cache fraction";
  if (fraction >= 1.0) {
    return 1.0;
  }
  const double t = 1.0 - fraction;
  if (t <= 0.0) {
    return 1.0;
  }
  return 1.0 - t + t * std::log(t);
}

double LruShuffledScanHitRatio(Bytes cache, Bytes dataset) {
  SILOD_CHECK(dataset > 0) << "dataset size must be positive";
  SILOD_CHECK(cache >= 0) << "cache size must be nonnegative";
  return LruScanHitFromFraction(static_cast<double>(cache) / static_cast<double>(dataset));
}

SharedLruResult SharedLruModel(const std::vector<BytesPerSec>& access_rates,
                               const std::vector<Bytes>& dataset_sizes, Bytes capacity) {
  SILOD_CHECK(access_rates.size() == dataset_sizes.size()) << "rates/sizes size mismatch";
  SILOD_CHECK(capacity >= 0) << "negative capacity";
  const std::size_t n = access_rates.size();
  SharedLruResult result;
  result.resident_bytes.assign(n, 0);
  result.hit_ratio.assign(n, 0.0);
  if (n == 0) {
    return result;
  }

  double total_data = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SILOD_CHECK(access_rates[i] > 0) << "access rate must be positive";
    SILOD_CHECK(dataset_sizes[i] > 0) << "dataset size must be positive";
    total_data += static_cast<double>(dataset_sizes[i]);
  }

  const double cap = static_cast<double>(capacity);
  double t = 0;
  if (cap >= total_data) {
    // Everything fits; the characteristic time is unbounded.
    t = std::numeric_limits<double>::infinity();
  } else {
    // Solve sum_i min(f_i * T, d_i) = C for T by bisection.  The left side is
    // continuous and nondecreasing in T, 0 at T=0 and total_data at T=inf.
    double hi = 1.0;
    auto occupancy = [&](double tt) {
      double s = 0;
      for (std::size_t i = 0; i < n; ++i) {
        s += std::min(access_rates[i] * tt, static_cast<double>(dataset_sizes[i]));
      }
      return s;
    };
    while (occupancy(hi) < cap) {
      hi *= 2;
      if (hi > 1e18) {
        break;
      }
    }
    // The bracket stops moving after ~55 of the 200 steps.
    const Bracket b = Bisect(0.0, hi, 200, [&](double mid) { return occupancy(mid) < cap; });
    t = 0.5 * (b.lo + b.hi);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(dataset_sizes[i]);
    const double resident = std::isinf(t) ? d : std::min(access_rates[i] * t, d);
    result.resident_bytes[i] = static_cast<Bytes>(resident);
    const double frac = resident / d;
    result.hit_ratio[i] = LruScanHitFromFraction(frac);
  }
  result.characteristic_time = t;
  return result;
}

}  // namespace silod
