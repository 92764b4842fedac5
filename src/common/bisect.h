// Bisection with a bracket stop.
//
// The solvers that bisect a scalar (Gavel's fairness ratio, the throttle
// level of its remote-IO grant, the shared-LRU characteristic time) run a
// fixed number of halving steps.  In doubles the bracket stops shrinking long
// before that: once the midpoint rounds to one end, the step sets that end to
// itself, and every later step computes the same midpoint, asks the same
// question and changes nothing.  Bisect stops at the first such step, so it
// returns the same bracket as all `max_steps` would, for any deterministic
// predicate, monotone or not.
#ifndef SILOD_SRC_COMMON_BISECT_H_
#define SILOD_SRC_COMMON_BISECT_H_

namespace silod {

struct Bracket {
  double lo = 0;
  double hi = 0;
};

// Halves [lo, hi] at most `max_steps` times: lo moves up to the midpoint
// where below(mid) holds, hi moves down to it where it does not.
template <typename Below>
Bracket Bisect(double lo, double hi, int max_steps, Below&& below) {
  for (int step = 0; step < max_steps; ++step) {
    const double mid = 0.5 * (lo + hi);
    double& side = below(mid) ? lo : hi;
    if (side == mid) {
      break;  // (lo, hi) is unchanged, so every remaining step is this one.
    }
    side = mid;
  }
  return {lo, hi};
}

}  // namespace silod

#endif  // SILOD_SRC_COMMON_BISECT_H_
