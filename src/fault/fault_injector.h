// FaultInjector: the consumption cursor over a FaultPlan.
//
// Engines fold the injector's next event time into their next-event
// computation (virtual time) or poll it each control-loop iteration (wall
// clock); either way they pop the due events and apply them, then trigger an
// immediate reschedule — failures and recoveries are scheduling events, not
// background noise (§6).
#ifndef SILOD_SRC_FAULT_FAULT_INJECTOR_H_
#define SILOD_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstddef>
#include <vector>

#include "src/fault/fault_plan.h"

namespace silod {

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  // Time of the next unconsumed event; kInfiniteTime when exhausted.  Inline:
  // both engines read it on every step.
  Seconds NextTime() const { return exhausted() ? kInfiniteTime : plan_.events[next_].time; }

  // Appends every event due at or before `now` to `due` (plan order) and
  // advances the cursor past them.
  void PopDue(Seconds now, std::vector<FaultEvent>* due);

  bool exhausted() const { return next_ >= plan_.events.size(); }
  std::size_t injected() const { return next_; }

 private:
  FaultPlan plan_;
  std::size_t next_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_FAULT_FAULT_INJECTOR_H_
