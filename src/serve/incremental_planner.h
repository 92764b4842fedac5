// The silodd planning core: the batch scheduler MakeSchedulerByName builds
// for the policy name, plus epoch coalescing (docs/MODEL.md §11).
//
// Every scheduling policy is a pure function from the cluster snapshot to an
// AllocationPlan, so the daemon needs no per-policy fast path: it counts the
// mutating events since the last solve and, when a plan is asked for, either
// serves the cached plan or calls Scheduler::Schedule on the whole snapshot.
//
//   - no pending events       -> reuse the cached plan (reused_plans);
//   - pending events, not due -> reuse the cached plan (reused_plans);
//   - pending events, due     -> Scheduler::Schedule (full_solves).
//
// Epoch coalescing: a re-solve is due when events are pending AND (enough of
// them coalesced, OR the min-replan interval elapsed since the last solve, OR
// the caller forces it).  Between due points queries serve the cached plan,
// so a burst of N arrivals costs one solve, not N.  The same path serves all
// 15 policies.
#ifndef SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_
#define SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/policy_registry.h"

namespace silod {

struct PlanningOptions {
  // Coalescing window: with events pending, wait until this much virtual
  // time passed since the last solve (0 = re-solve on every event).
  Seconds min_replan_interval = 0;
  // ... unless this many events already coalesced, which forces the tick
  // early (1 = every event plans immediately, batching disabled).
  std::uint64_t max_coalesced_events = 1;
};

class IncrementalPlanner {
 public:
  // kNotFound (listing known policies) for unknown names.
  static Result<std::unique_ptr<IncrementalPlanner>> Create(const std::string& policy,
                                                            const SchedulerOptions& options,
                                                            const PlanningOptions& planning);

  // Swaps the scheduler for `policy` without losing job state; counts as a
  // pending event, so the next due plan is a fresh solve.
  Status ReloadPolicy(const std::string& policy, const SchedulerOptions& options);

  // Records one mutating daemon event the current plan does not reflect.
  void MarkEvent() { ++pending_events_; }

  // Returns the current plan, re-solving first when events are pending and
  // due (or `force`).  The snapshot must reflect all events marked so far.
  const AllocationPlan& PlanFor(const Snapshot& snapshot, bool force);

  const std::string& policy_name() const { return policy_; }
  Seconds last_plan_time() const { return last_plan_time_; }
  // Events marked since the last solve; 0 means the cached plan is current.
  std::uint64_t pending_events() const { return pending_events_; }

  // Journal recovery: restores the coalescing state a checkpoint saved and
  // the cached plan (null when the saved service had not planned yet), so
  // Due() fires at the same virtual instants as the uninterrupted run.
  void RestorePlanningState(Seconds last_plan_time, std::uint64_t pending_events,
                            const AllocationPlan* plan);
  // Calls the scheduler without touching the cached plan or the counters;
  // recovery uses it to re-derive a plan the checkpoint did not store.
  AllocationPlan SolveUncounted(const Snapshot& snapshot) {
    return scheduler_->Schedule(snapshot);
  }

  std::uint64_t full_solves() const { return full_solves_; }
  std::uint64_t reused_plans() const { return reused_plans_; }
  std::uint64_t planning_ticks() const { return planning_ticks_; }

 private:
  IncrementalPlanner(std::string policy, PlanningOptions planning,
                     std::shared_ptr<Scheduler> scheduler);

  bool Due(const Snapshot& snapshot) const;

  std::string policy_;
  PlanningOptions planning_;
  std::shared_ptr<Scheduler> scheduler_;

  AllocationPlan plan_;
  bool have_plan_ = false;
  Seconds last_plan_time_ = 0;
  // The initial plan is pending from construction.
  std::uint64_t pending_events_ = 1;

  std::uint64_t full_solves_ = 0;
  std::uint64_t reused_plans_ = 0;
  std::uint64_t planning_ticks_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_
