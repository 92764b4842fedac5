// Algorithm 1: composing scheduling policies with cache systems.
//
// SiloD's framework is "any performance-aware scheduler + the SiloDPerf
// estimator + storage in totalResource".  Every (scheduler, cache system)
// pair evaluated in §7 is one policy:
//
//               SiloD                     Alluxio / CoorDL / Quiver
//   FIFO   greedy Alg. 2 storage       independent cache, fair-share IO
//   SJF    Eq. 7 score + Alg. 2        Eq. 6 score (compute-only estimator)
//   Gavel  Eq. 9 solver                Eq. 8 with compute-only estimator
//
// Each policy has one name, "<scheduler>+<cache>" (e.g. "sjf+silod",
// "gavel+alluxio-lfu"), which the CLIs, silodd, ExperimentConfig and the
// benches all use; ParsePolicy reads it and MakeScheduler builds the pair.
#ifndef SILOD_SRC_CORE_POLICY_REGISTRY_H_
#define SILOD_SRC_CORE_POLICY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sched/gavel.h"
#include "src/sched/policy.h"

namespace silod {

enum class SchedulerKind { kFifo, kSjf, kGavel };
enum class CacheSystem { kSiloD, kAlluxio, kAlluxioLfu, kCoorDl, kQuiver };

// Display names for tables ("SJF", "Alluxio-LFU").
const char* SchedulerKindName(SchedulerKind kind);
const char* CacheSystemName(CacheSystem system);

struct SchedulerOptions {
  // §7.2 ablation: SiloD allocates cache but leaves remote IO to the
  // provider's fair share.
  bool manage_remote_io = true;
  // Objective for the Gavel scheduler's SiloD variant (§5.2: the extension
  // supports every objective Gavel does).
  GavelObjective gavel_objective = GavelObjective::kMaxMinFairness;
  // SRTF: the SJF scheduler preempts running jobs for lower-score arrivals.
  // Only the flow engine executes preemptive plans.
  bool preemptive_sjf = false;
  // Relative noise of Quiver's online benefit profiling.
  double quiver_profiling_noise = 0.25;
  std::uint64_t seed = 11;
};

// The policy name of a pair: "<scheduler>+<cache>" with the tokens
//
//   scheduler:  fifo | sjf | gavel
//   cache:      silod | alluxio | alluxio-lfu | coordl | quiver
std::string PolicyName(SchedulerKind kind, CacheSystem system);

// All 15 policy names, scheduler-major in enum order.
const std::vector<std::string>& PolicyNames();

// The inverse of PolicyName; kNotFound listing every policy name otherwise.
Result<std::pair<SchedulerKind, CacheSystem>> ParsePolicy(const std::string& name);

std::shared_ptr<Scheduler> MakeScheduler(SchedulerKind kind, CacheSystem system,
                                         const SchedulerOptions& options = {});

// ParsePolicy, then MakeScheduler.
Result<std::shared_ptr<Scheduler>> MakeSchedulerByName(const std::string& name,
                                                       const SchedulerOptions& options = {});

}  // namespace silod

#endif  // SILOD_SRC_CORE_POLICY_REGISTRY_H_
