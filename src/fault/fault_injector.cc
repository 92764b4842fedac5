#include "src/fault/fault_injector.h"

#include <utility>

namespace silod {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) { plan_.Sort(); }

void FaultInjector::PopDue(Seconds now, std::vector<FaultEvent>* due) {
  while (next_ < plan_.events.size() && plan_.events[next_].time <= now) {
    due->push_back(plan_.events[next_]);
    ++next_;
  }
}

}  // namespace silod
