#include "src/sched/gavel.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/cache/analytic.h"
#include "src/common/bisect.h"
#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/sched/zone_spread.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

struct RunningJob {
  const JobView* view = nullptr;
  BytesPerSec base = 0;   // Normalizer of the fairness ratio.
  double speed = 1.0;     // Held GPU type's speed (plan's placement).
  BytesPerSec ideal = 0;  // Effective ideal rate f*·speed.
  std::size_t slot = 0;   // Dense index of the job's dataset in the oracle.
};

// Fractional-knapsack feasibility oracle over one solve's running jobs: can
// every job sustain the target min(rho·base, f*·s) at a given ratio rho?  On
// success cache() and required_io() hold the dataset cache quotas and the
// per-job remote IO.  The constructor maps the running jobs' datasets to
// dense slots in ascending id order (setting each job's slot), so a probe
// allocates nothing, and every per-dataset sum still accumulates in job order.
class FeasibilityOracle {
 public:
  FeasibilityOracle(const Snapshot& snapshot, std::vector<RunningJob>& jobs)
      : snapshot_(snapshot), jobs_(jobs) {
    for (const RunningJob& j : jobs) {
      ids_.push_back(j.view->spec->dataset);
    }
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    for (RunningJob& j : jobs) {
      j.slot = static_cast<std::size_t>(
          std::lower_bound(ids_.begin(), ids_.end(), j.view->spec->dataset) - ids_.begin());
    }
    for (const DatasetId id : ids_) {
      size_.push_back(snapshot.catalog->Get(id).size);
    }
    saving_rate_.resize(ids_.size());
    cache_.resize(ids_.size());
    order_.resize(ids_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    targets_.resize(jobs.size());
    required_io_.resize(jobs.size());
  }

  bool Feasible(double rho) {
    std::fill(cache_.begin(), cache_.end(), 0);
    std::fill(saving_rate_.begin(), saving_rate_.end(), 0.0);

    // Phase 1 — mandatory cache: the provider's per-job cap means job j can
    // sustain T_j only if its dataset holds at least d (1 - cap / T_j) bytes
    // of cache.  With sharing, a dataset's floor is the max over its jobs;
    // cache_ holds the floors until phase 2 adds to them.
    const BytesPerSec cap = snapshot_.resources.per_job_remote_cap;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const RunningJob& j = jobs_[i];
      const BytesPerSec target = std::min(rho * j.base, j.ideal);
      targets_[i] = target;
      const Bytes size = size_[j.slot];
      saving_rate_[j.slot] += target / static_cast<double>(size);
      if (std::isfinite(cap) && target > cap) {
        const double frac = 1.0 - cap / target;
        const Bytes need = static_cast<Bytes>(frac * static_cast<double>(size)) + 1;
        cache_[j.slot] = std::max(cache_[j.slot], std::min(need, size));
      }
    }
    Bytes remaining = snapshot_.resources.total_cache;
    for (const Bytes floor : cache_) {
      remaining -= floor;
    }
    if (remaining < 0) {
      return false;  // Cannot even satisfy the per-job caps.
    }

    // Phase 2 — fractional knapsack on the rest: a byte of cache on dataset D
    // saves sum_{j on D} T_j / d of remote IO.  The order is rate descending,
    // then id (slots ascend with id): a strict total order, so repairing the
    // previous probe's order by insertion yields exactly the sorted sequence,
    // in time linear in the slots plus the pairs the new rates swapped.
    for (std::size_t k = 1; k < order_.size(); ++k) {
      const std::size_t s = order_[k];
      std::size_t m = k;
      for (; m > 0 && Before(s, order_[m - 1]); --m) {
        order_[m] = order_[m - 1];
      }
      order_[m] = s;
    }
    for (const std::size_t s : order_) {
      if (remaining <= 0) {
        break;
      }
      const Bytes grant = std::min(size_[s] - cache_[s], remaining);
      cache_[s] += grant;
      remaining -= grant;
    }

    BytesPerSec total_io = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const std::size_t s = jobs_[i].slot;
      required_io_[i] = RequiredRemoteIo(targets_[i], cache_[s], size_[s]);
      if (required_io_[i] > cap * (1.0 + 1e-12)) {
        return false;  // The provider's per-job cap binds before the account cap.
      }
      total_io += required_io_[i];
    }
    return total_io <= snapshot_.resources.remote_io * (1.0 + 1e-12);
  }

  Bytes cache(const RunningJob& j) const { return cache_[j.slot]; }
  Bytes dataset_size(const RunningJob& j) const { return size_[j.slot]; }
  const std::vector<BytesPerSec>& required_io() const { return required_io_; }

  // The cache quotas as a map.  A floor is at least one byte and the
  // knapsack grants every dataset it reaches at least one, so the datasets
  // with a quota are exactly those holding cache.
  std::map<DatasetId, Bytes> DatasetCache() const {
    std::map<DatasetId, Bytes> quotas;
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      if (cache_[s] > 0) {
        quotas.emplace_hint(quotas.end(), ids_[s], cache_[s]);
      }
    }
    return quotas;
  }

 private:
  bool Before(std::size_t a, std::size_t b) const {
    if (saving_rate_[a] != saving_rate_[b]) {
      return saving_rate_[a] > saving_rate_[b];
    }
    return a < b;
  }

  const Snapshot& snapshot_;
  const std::vector<RunningJob>& jobs_;
  // Per slot.
  std::vector<DatasetId> ids_;
  std::vector<Bytes> size_;
  std::vector<double> saving_rate_;
  std::vector<Bytes> cache_;
  std::vector<std::size_t> order_;  // Slots in knapsack order, kept across probes.
  // Per job.
  std::vector<BytesPerSec> targets_;
  std::vector<BytesPerSec> required_io_;
};

// The normalizer of the fairness ratio for each objective: equal-share
// throughput for Eq. 8/9 max-min fairness, the exclusive-cluster rate f*·s
// for finish-time fairness.  `speed` is the job's held-GPU-type speed, so a
// job on a slow generation is normalized against what that hardware can do,
// not against the uniform-fleet f*.
BytesPerSec FairnessBase(GavelObjective objective, const JobSpec& job, double speed,
                         const DatasetCatalog& catalog, const EqualShareParams& eq) {
  BytesPerSec base = objective == GavelObjective::kFinishTimeFairness
                         ? EffectiveIdeal(job.ideal_io, speed)
                         : EqualShareThroughput(job, speed, catalog, eq);
  if (base <= 0) {
    base = EffectiveIdeal(job.ideal_io, speed) * 1e-9;  // Keep the denominator positive.
  }
  return base;
}

GavelSolution SolveFairness(const Snapshot& snapshot, const AllocationPlan& plan,
                            GavelObjective objective) {
  GavelSolution solution;
  std::vector<RunningJob> jobs;
  for (const JobView& view : snapshot.jobs) {
    if (plan.IsRunning(view.spec->id)) {
      RunningJob j;
      j.view = &view;
      // The plan's placement is authoritative post-admission: every target
      // and demand below uses the effective ideal rate of the GPU type the
      // gang actually landed on (speed 1.0 on uniform fleets).
      j.speed = plan.Get(view.spec->id).speed;
      j.ideal = EffectiveIdeal(view.spec->ideal_io, j.speed);
      jobs.push_back(j);
    }
  }
  if (jobs.empty()) {
    return solution;
  }
  const int n = static_cast<int>(jobs.size());
  const EqualShareParams eq = MakeEqualShareParams(snapshot.resources, n);
  for (RunningJob& j : jobs) {
    j.base = FairnessBase(objective, *j.view->spec, j.speed, *snapshot.catalog, eq);
  }

  FeasibilityOracle oracle(snapshot, jobs);

  // Upper bound: the ratio at which every job is compute-bound.
  double hi = 1.0;
  for (const RunningJob& j : jobs) {
    hi = std::max(hi, j.ideal / j.base);
  }
  auto feasible = [&](double rho) { return oracle.Feasible(rho); };
  // A feasible upper bound means everyone reaches f*.
  const double rho = feasible(hi) ? hi : Bisect(0.0, hi, 100, feasible).lo;
  const bool ok = oracle.Feasible(rho);
  SILOD_CHECK(ok) << "bisection lower bound must be feasible";
  const std::vector<BytesPerSec>& required = oracle.required_io();

  // Progressive filling: hand leftover egress bandwidth to jobs that still
  // have headroom toward f*, max-min over the extra demand.
  BytesPerSec used = 0;
  for (BytesPerSec b : required) {
    used += b;
  }
  const BytesPerSec leftover = std::max(0.0, snapshot.resources.remote_io - used);
  std::vector<BytesPerSec> extra_demand(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BytesPerSec max_b =
        std::min(RemoteIoDemand(jobs[i].ideal, oracle.cache(jobs[i]), oracle.dataset_size(jobs[i])),
                 snapshot.resources.per_job_remote_cap);
    extra_demand[i] = std::max(0.0, max_b - required[i]);
  }
  const std::vector<BytesPerSec> extra = MaxMinShare(extra_demand, leftover);

  solution.fairness_ratio = rho;
  solution.dataset_cache = oracle.DatasetCache();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobId id = jobs[i].view->spec->id;
    solution.remote_io[id] = required[i] + extra[i];
    solution.target[id] = SiloDPerfThroughput(jobs[i].ideal, solution.remote_io[id],
                                              oracle.cache(jobs[i]), oracle.dataset_size(jobs[i]));
  }
  return solution;
}

}  // namespace

const char* GavelObjectiveName(GavelObjective objective) {
  switch (objective) {
    case GavelObjective::kMaxMinFairness:
      return "max-min-fairness";
    case GavelObjective::kFinishTimeFairness:
      return "finish-time-fairness";
    case GavelObjective::kMinTotalJct:
      return "min-total-jct";
    case GavelObjective::kMaxThroughput:
      return "max-throughput";
  }
  return "unknown";
}

BytesPerSec EqualShareThroughput(const JobSpec& job, const Snapshot& snapshot, int num_sharers) {
  SILOD_CHECK(snapshot.catalog != nullptr) << "catalog required";
  return EqualShareThroughput(job, *snapshot.catalog,
                              MakeEqualShareParams(snapshot.resources, num_sharers));
}

EqualShareParams MakeEqualShareParams(const ClusterResources& resources, int num_sharers) {
  SILOD_CHECK(num_sharers >= 1) << "at least one sharer";
  EqualShareParams params;
  params.cache_eq = resources.total_cache / num_sharers;
  params.io_eq = std::min(resources.remote_io / num_sharers, resources.per_job_remote_cap);
  return params;
}

BytesPerSec EqualShareThroughput(const JobSpec& job, const DatasetCatalog& catalog,
                                 const EqualShareParams& params) {
  const Dataset& d = catalog.Get(job.dataset);
  return SiloDPerfThroughput(job.ideal_io, params.io_eq, std::min(params.cache_eq, d.size),
                             d.size);
}

BytesPerSec EqualShareThroughput(const JobSpec& job, double speed, const DatasetCatalog& catalog,
                                 const EqualShareParams& params) {
  const Dataset& d = catalog.Get(job.dataset);
  return SiloDPerfThroughput(job.ideal_io, speed, params.io_eq, std::min(params.cache_eq, d.size),
                             d.size);
}

GavelSolution SolveMaxMinFairness(const Snapshot& snapshot, const AllocationPlan& plan) {
  return SolveFairness(snapshot, plan, GavelObjective::kMaxMinFairness);
}

GavelScheduler::GavelScheduler(std::shared_ptr<StoragePolicy> storage, bool silod_aware,
                               bool manage_remote_io, GavelObjective objective)
    : storage_(std::move(storage)), silod_aware_(silod_aware),
      manage_remote_io_(manage_remote_io), objective_(objective) {
  SILOD_CHECK(silod_aware_ || storage_ != nullptr)
      << "vanilla Gavel needs an independent storage policy";
}

std::string GavelScheduler::name() const {
  std::string base;
  if (silod_aware_) {
    base = manage_remote_io_ ? "gavel-silod" : "gavel-silod-cache-only";
  } else {
    base = "gavel+" + storage_->name();
  }
  if (objective_ != GavelObjective::kMaxMinFairness) {
    base += std::string("[") + GavelObjectiveName(objective_) + "]";
  }
  return base;
}

void GavelScheduler::AllocateFairShare(const Snapshot& snapshot, AllocationPlan& plan) {
  const GavelSolution solution = SolveFairness(snapshot, plan, objective_);
  plan.dataset_cache = solution.dataset_cache;
  if (!manage_remote_io_) {
    return;
  }
  // Throttles are solved over the *effective* cache (§6): the steady-state
  // solver's b_j would starve a job whose planned cache has not filled yet
  // (a fully-cached target implies b = 0, but a cold job needs IO both to
  // train and to fill that cache).  We bisect the same ratio over each job's
  // current achievable throughput min(f*, b/(1 - eff/d)); as caches fill,
  // this converges to the steady-state solution.
  std::vector<JobId> ids;
  std::vector<BytesPerSec> base;
  EstimatorBatch batch;
  int n_running = 0;
  for (const JobView& view : snapshot.jobs) {
    if (plan.IsRunning(view.spec->id)) {
      ++n_running;
    }
  }
  const EqualShareParams eq = MakeEqualShareParams(snapshot.resources, std::max(1, n_running));
  for (const JobView& view : snapshot.jobs) {
    if (!plan.IsRunning(view.spec->id)) {
      continue;
    }
    const Dataset& d = snapshot.catalog->Get(view.spec->dataset);
    ids.push_back(view.spec->id);
    const double speed = plan.Get(view.spec->id).speed;
    base.push_back(FairnessBase(objective_, *view.spec, speed, *snapshot.catalog, eq));
    // Zone-aware runs feed the estimator the post-crash surviving share, so
    // the throttles granted now still cover the jobs after a worst-case
    // single-zone crash (identity when the snapshot has no topology).  The
    // batch stores the effective ideal f*·s, so every bisection probe and
    // demand below is heterogeneity-aware with no extra work in the loop.
    batch.Add(view.spec->ideal_io, speed, SurvivingCacheShare(snapshot, view.effective_cache),
              d.size);
  }
  // One bisection probe sweeps the whole batch instead of re-deriving each
  // job's operating point from snapshot views; the arithmetic (and summation
  // order) matches the per-job loop exactly.
  const BytesPerSec cap = snapshot.resources.per_job_remote_cap;
  double hi = 1.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    hi = std::max(hi, batch.ideal(i) / base[i]);
  }
  auto fits = [&](double rho) {
    return batch.TotalThrottledDemand(rho, base, cap) <= snapshot.resources.remote_io;
  };
  const double lo = fits(hi) ? hi : Bisect(0.0, hi, 80, fits).lo;
  std::vector<BytesPerSec> max_demand;
  batch.RemoteIoDemands(&max_demand);
  std::vector<BytesPerSec> grant(ids.size());
  std::vector<BytesPerSec> residual(ids.size());
  BytesPerSec used = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    grant[i] = batch.ThrottledDemand(lo, base, cap, i);
    used += grant[i];
    residual[i] = std::max(0.0, std::min(max_demand[i], cap) - grant[i]);
  }
  const std::vector<BytesPerSec> topup =
      MaxMinShare(residual, std::max(0.0, snapshot.resources.remote_io - used));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    plan.jobs[ids[i]].remote_io = grant[i] + topup[i];
  }
}

void GavelScheduler::AllocateGreedyObjective(const Snapshot& snapshot, AllocationPlan& plan) {
  struct Entry {
    const JobView* view = nullptr;
    double speed = 1.0;         // Held GPU type's speed (plan's placement).
    double remaining_time = 0;  // remaining / (f*·speed).
  };
  std::vector<Entry> jobs;
  for (const JobView& view : snapshot.jobs) {
    if (!plan.IsRunning(view.spec->id)) {
      continue;
    }
    Entry e;
    e.view = &view;
    e.speed = plan.Get(view.spec->id).speed;
    e.remaining_time = std::max(1.0, static_cast<double>(view.remaining_bytes) /
                                         EffectiveIdeal(view.spec->ideal_io, e.speed));
    jobs.push_back(e);
  }
  if (jobs.empty()) {
    return;
  }

  // Cache: rank datasets by their marginal value for the objective —
  // remote-IO saving per byte (Alg. 2) for max-throughput, the same divided
  // by the sharing jobs' remaining time for total JCT (a byte that speeds a
  // nearly-done job buys more completion per second).
  std::map<DatasetId, double> weight;
  for (const Entry& e : jobs) {
    const Dataset& d = snapshot.catalog->Get(e.view->spec->dataset);
    double w = CacheEfficiency(e.view->spec->ideal_io, e.speed, d.size);
    if (objective_ == GavelObjective::kMinTotalJct) {
      w /= e.remaining_time;
    }
    weight[d.id] += w;
  }
  std::vector<std::pair<DatasetId, double>> order(weight.begin(), weight.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  Bytes remaining = snapshot.resources.total_cache;
  for (const auto& [dataset_id, w] : order) {
    if (remaining <= 0) {
      break;
    }
    const Bytes grant = std::min(snapshot.catalog->Get(dataset_id).size, remaining);
    plan.dataset_cache[dataset_id] = grant;
    remaining -= grant;
  }

  if (!manage_remote_io_) {
    return;
  }
  // Remote IO: grant instantaneous demands in objective order — best IO-to-
  // throughput conversion first (max-throughput), shortest remaining first
  // (total JCT, SRPT) — each job up to min(demand, per-job cap).
  std::sort(jobs.begin(), jobs.end(), [&](const Entry& a, const Entry& b) {
    if (objective_ == GavelObjective::kMinTotalJct) {
      return a.remaining_time < b.remaining_time;
    }
    const Dataset& da = snapshot.catalog->Get(a.view->spec->dataset);
    const Dataset& db = snapshot.catalog->Get(b.view->spec->dataset);
    auto planned = [&](const Dataset& d) {
      auto it = plan.dataset_cache.find(d.id);
      const Bytes c = it == plan.dataset_cache.end() ? 0 : it->second;
      return UniformHitRatio(c, d.size);
    };
    return planned(da) > planned(db);
  });
  BytesPerSec pool = snapshot.resources.remote_io;
  for (const Entry& e : jobs) {
    const Dataset& d = snapshot.catalog->Get(e.view->spec->dataset);
    const BytesPerSec demand =
        std::min(RemoteIoDemand(e.view->spec->ideal_io, e.speed, e.view->effective_cache, d.size),
                 snapshot.resources.per_job_remote_cap);
    const BytesPerSec grant = std::min(demand, pool);
    plan.jobs[e.view->spec->id].remote_io = grant;
    pool -= grant;
  }
}

AllocationPlan GavelScheduler::Schedule(const Snapshot& snapshot) {
  // GPU admission: with gang-scheduled fixed GPU demands, max-min over GPU
  // time reduces to arrival order among waiting jobs (running jobs are not
  // preempted).
  std::vector<std::size_t> order(snapshot.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return snapshot.jobs[a].spec->submit_time < snapshot.jobs[b].spec->submit_time;
  });

  AllocationPlan plan;
  AdmitByOrder(snapshot, order, &plan);

  if (!silod_aware_) {
    storage_->AllocateStorage(snapshot, &plan);
    return plan;
  }

  plan.cache_model = CacheModelKind::kDatasetQuota;
  plan.manages_remote_io = manage_remote_io_;
  switch (objective_) {
    case GavelObjective::kMaxMinFairness:
    case GavelObjective::kFinishTimeFairness:
      AllocateFairShare(snapshot, plan);
      break;
    case GavelObjective::kMinTotalJct:
    case GavelObjective::kMaxThroughput:
      AllocateGreedyObjective(snapshot, plan);
      break;
  }
  SpreadPlanAcrossZones(snapshot, &plan);
  return plan;
}

}  // namespace silod
