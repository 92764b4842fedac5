#include "src/serve/incremental_planner.h"

#include <utility>

namespace silod {

IncrementalPlanner::IncrementalPlanner(std::string policy, PlanningOptions planning,
                                       std::shared_ptr<Scheduler> scheduler)
    : policy_(std::move(policy)), planning_(planning), scheduler_(std::move(scheduler)) {}

Result<std::unique_ptr<IncrementalPlanner>> IncrementalPlanner::Create(
    const std::string& policy, const SchedulerOptions& options, const PlanningOptions& planning) {
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, options);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  return std::unique_ptr<IncrementalPlanner>(
      new IncrementalPlanner(policy, planning, std::move(scheduler).value()));
}

Status IncrementalPlanner::ReloadPolicy(const std::string& policy,
                                        const SchedulerOptions& options) {
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, options);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  policy_ = policy;
  scheduler_ = std::move(scheduler).value();
  MarkEvent();
  return Status::Ok();
}

void IncrementalPlanner::RestorePlanningState(Seconds last_plan_time,
                                              std::uint64_t pending_events,
                                              const AllocationPlan* plan) {
  last_plan_time_ = last_plan_time;
  pending_events_ = pending_events;
  have_plan_ = plan != nullptr;
  plan_ = have_plan_ ? *plan : AllocationPlan{};
}

bool IncrementalPlanner::Due(const Snapshot& snapshot) const {
  if (!have_plan_) {
    return true;
  }
  if (pending_events_ >= planning_.max_coalesced_events) {
    return true;
  }
  return snapshot.now - last_plan_time_ >= planning_.min_replan_interval;
}

const AllocationPlan& IncrementalPlanner::PlanFor(const Snapshot& snapshot, bool force) {
  ++planning_ticks_;
  if ((have_plan_ && pending_events_ == 0) || (!force && !Due(snapshot))) {
    ++reused_plans_;
    return plan_;
  }
  plan_ = scheduler_->Schedule(snapshot);
  ++full_solves_;
  have_plan_ = true;
  last_plan_time_ = snapshot.now;
  pending_events_ = 0;
  return plan_;
}

}  // namespace silod
