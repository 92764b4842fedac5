#include "src/core/policy_registry.h"

#include "src/common/logging.h"
#include "src/sched/fifo.h"
#include "src/sched/greedy.h"
#include "src/sched/sjf.h"
#include "src/sched/storage_policies.h"

namespace silod {
namespace {

// One name table per enum: the policy-name token and the display name.
template <typename Kind>
struct Names {
  Kind kind;
  const char* token;
  const char* display;
};

constexpr Names<SchedulerKind> kSchedulerNames[] = {
    {SchedulerKind::kFifo, "fifo", "FIFO"},
    {SchedulerKind::kSjf, "sjf", "SJF"},
    {SchedulerKind::kGavel, "gavel", "Gavel"},
};

constexpr Names<CacheSystem> kCacheNames[] = {
    {CacheSystem::kSiloD, "silod", "SiloD"},
    {CacheSystem::kAlluxio, "alluxio", "Alluxio"},
    {CacheSystem::kAlluxioLfu, "alluxio-lfu", "Alluxio-LFU"},
    {CacheSystem::kCoorDl, "coordl", "CoorDL"},
    {CacheSystem::kQuiver, "quiver", "Quiver"},
};

template <typename Kind, std::size_t N>
const Names<Kind>& Lookup(const Names<Kind> (&table)[N], Kind kind) {
  for (const Names<Kind>& names : table) {
    if (names.kind == kind) {
      return names;
    }
  }
  SILOD_CHECK(false) << "enum value missing from its name table";
  return table[0];
}

}  // namespace

const char* SchedulerKindName(SchedulerKind kind) {
  return Lookup(kSchedulerNames, kind).display;
}

const char* CacheSystemName(CacheSystem system) { return Lookup(kCacheNames, system).display; }

std::string PolicyName(SchedulerKind kind, CacheSystem system) {
  return std::string(Lookup(kSchedulerNames, kind).token) + "+" +
         Lookup(kCacheNames, system).token;
}

const std::vector<std::string>& PolicyNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Names<SchedulerKind>& scheduler : kSchedulerNames) {
      for (const Names<CacheSystem>& cache : kCacheNames) {
        out.push_back(PolicyName(scheduler.kind, cache.kind));
      }
    }
    return out;
  }();
  return names;
}

Result<std::pair<SchedulerKind, CacheSystem>> ParsePolicy(const std::string& name) {
  std::string known;
  for (const Names<SchedulerKind>& scheduler : kSchedulerNames) {
    for (const Names<CacheSystem>& cache : kCacheNames) {
      const std::string candidate = PolicyName(scheduler.kind, cache.kind);
      if (candidate == name) {
        return std::make_pair(scheduler.kind, cache.kind);
      }
      known += (known.empty() ? "" : ", ") + candidate;
    }
  }
  return Status::NotFound("unknown policy '" + name + "'; known: " + known);
}

std::shared_ptr<Scheduler> MakeScheduler(SchedulerKind kind, CacheSystem system,
                                         const SchedulerOptions& options) {
  std::shared_ptr<StoragePolicy> storage;
  switch (system) {
    case CacheSystem::kSiloD:
      storage = std::make_shared<SiloDGreedyStorage>(options.manage_remote_io);
      break;
    case CacheSystem::kAlluxio:
      storage = std::make_shared<AlluxioStorage>();
      break;
    case CacheSystem::kAlluxioLfu:
      storage = std::make_shared<AlluxioStorage>(AlluxioStorage::Eviction::kLfu);
      break;
    case CacheSystem::kCoorDl:
      storage = std::make_shared<CoorDlStorage>();
      break;
    case CacheSystem::kQuiver:
      storage =
          std::make_shared<QuiverStorage>(options.quiver_profiling_noise, options.seed);
      break;
  }

  const bool silod = system == CacheSystem::kSiloD;
  switch (kind) {
    case SchedulerKind::kFifo:
      return std::make_shared<FifoScheduler>(storage);
    case SchedulerKind::kSjf:
      return std::make_shared<SjfScheduler>(
          storage, silod ? SjfScoreMode::kSiloD : SjfScoreMode::kComputeOnly,
          options.preemptive_sjf);
    case SchedulerKind::kGavel:
      if (silod) {
        return std::make_shared<GavelScheduler>(nullptr, /*silod_aware=*/true,
                                                options.manage_remote_io,
                                                options.gavel_objective);
      }
      return std::make_shared<GavelScheduler>(storage, /*silod_aware=*/false);
  }
  SILOD_CHECK(false) << "unreachable scheduler kind";
  return nullptr;
}

Result<std::shared_ptr<Scheduler>> MakeSchedulerByName(const std::string& name,
                                                       const SchedulerOptions& options) {
  Result<std::pair<SchedulerKind, CacheSystem>> policy = ParsePolicy(name);
  if (!policy.ok()) {
    return policy.status();
  }
  return MakeScheduler(policy->first, policy->second, options);
}

}  // namespace silod
