// Unit and property tests for src/sched: admission, Algorithm 2, the SJF
// score (Eq. 6/7), the Gavel max-min solver (Eq. 8/9), baseline storage
// policies, and plan validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/estimator/ioperf.h"
#include "src/sched/fifo.h"
#include "src/sched/gavel.h"
#include "src/sched/greedy.h"
#include "src/sched/sjf.h"
#include "src/sched/storage_policies.h"
#include "src/sched/zone_spread.h"
#include "src/storage/remote_store.h"
#include "src/workload/model_zoo.h"

namespace silod {
namespace {

// Fixture building configurable snapshots.
class SchedTest : public ::testing::Test {
 protected:
  SchedTest() {
    snapshot_.catalog = &catalog_;
    snapshot_.resources.total_gpus = 8;
    snapshot_.resources.total_cache = TB(2);
    snapshot_.resources.remote_io = MBps(200);
  }

  // Adds a job on its own dataset; returns the view index.
  std::size_t AddJob(const std::string& model, int gpus, Bytes dataset_size,
                     Seconds duration = Hours(10), Seconds submit = 0) {
    const DatasetId d =
        catalog_.Add(model + "-data-" + std::to_string(jobs_.size()), dataset_size, MB(64));
    jobs_.push_back(MakeJob(static_cast<JobId>(jobs_.size()), zoo_, model, gpus, d, duration,
                            submit));
    views_dirty_ = true;
    return jobs_.size() - 1;
  }

  Snapshot& snapshot() {
    if (views_dirty_) {
      snapshot_.jobs.clear();
      for (const JobSpec& j : jobs_) {
        JobView view;
        view.spec = &j;
        view.remaining_bytes = j.total_bytes;
        view.effective_cache = 0;
        snapshot_.jobs.push_back(view);
      }
      views_dirty_ = false;
    }
    return snapshot_;
  }

  ModelZoo zoo_;
  DatasetCatalog catalog_;
  std::deque<JobSpec> jobs_;
  Snapshot snapshot_;
  bool views_dirty_ = true;
};

// -------------------------------------------------------------- Admission --

TEST_F(SchedTest, FifoAdmitsInArrivalOrderWithBackfill) {
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/0);
  AddJob("ResNet-50", 8, GB(143), Hours(1), /*submit=*/10);  // Does not fit after job 0.
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/20);  // Backfills.
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, RunningJobsAreNotPreempted) {
  AddJob("ResNet-50", 8, GB(143), Hours(1), /*submit=*/100);
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/0);
  snapshot().jobs[0].running = true;  // Later-submitted job already holds GPUs.
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot_);
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));  // No room left; FIFO order cannot preempt.
}

// ------------------------------------------------------------ Algorithm 2 --

TEST_F(SchedTest, GreedyCachesMostEfficientDatasetsFirst) {
  // §7.1.1 micro-benchmark shape: ResNet-50 (87 MB/s/TB) beats
  // EfficientNetB1 (53) beats BERT (0.4); 2 TB covers one full ResNet dataset
  // and 0.7 TB of the second most efficient.
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("BERT", 4, TB(20.9));
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // The two ResNet datasets are tied: one fully cached, the other gets the
  // remaining 0.7 TB.  EfficientNet and BERT get nothing.
  const Bytes c0 = plan.dataset_cache.at(jobs_[0].dataset);
  const Bytes c1 = plan.dataset_cache.at(jobs_[1].dataset);
  EXPECT_EQ(std::max(c0, c1), TB(1.3));
  EXPECT_EQ(std::min(c0, c1), TB(0.7));
  EXPECT_EQ(plan.dataset_cache.count(jobs_[2].dataset)
                ? plan.dataset_cache.at(jobs_[2].dataset)
                : 0,
            0);
  EXPECT_EQ(plan.DatasetCacheTotal(), TB(2));
}

TEST_F(SchedTest, GreedyRemoteIoCoversDemandsWhenUnderloaded) {
  AddJob("ResNet-50", 1, GB(143));
  AddJob("BERT", 4, TB(20.9));
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Instantaneous demands (cold caches): 114 + 8 MB/s < 200 MB/s.
  EXPECT_NEAR(plan.Get(0).remote_io, jobs_[0].ideal_io, 1.0);
  EXPECT_NEAR(plan.Get(1).remote_io, jobs_[1].ideal_io, 1.0);
  EXPECT_TRUE(plan.manages_remote_io);
}

TEST_F(SchedTest, GreedyRemoteIoSharesFairlyWhenOverloaded) {
  for (int i = 0; i < 4; ++i) {
    AddJob("ResNet-50", 1, TB(1.3));
  }
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Cold demands 4 x 114 > 200: equal 50 MB/s shares.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(plan.Get(i).remote_io, MBps(50), 1.0);
  }
}

TEST_F(SchedTest, GreedySumsEfficiencyOverSharingJobs) {
  // Two BERT jobs sharing one dataset can out-rank a single faster job if
  // their summed efficiency wins; here they do not, but the dataset-level sum
  // must still be what ranks (§6).
  const DatasetId shared = catalog_.Add("shared", GB(500), MB(64));
  for (int i = 0; i < 2; ++i) {
    jobs_.push_back(MakeJob(static_cast<JobId>(jobs_.size()), zoo_, "EfficientNetB1", 1, shared,
                            Hours(10), 0));
  }
  AddJob("ResNet-50", 1, GB(500));
  snapshot_.resources.total_cache = GB(500);
  views_dirty_ = true;
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Summed efficiency of the shared dataset: 2*69/500 = 0.276 > 114/500.
  EXPECT_EQ(plan.dataset_cache.at(shared), GB(500));
}

// -------------------------------------------------------------- SJF score --

TEST_F(SchedTest, VanillaSjfPrefersShortJobs) {
  const std::size_t long_job = AddJob("ResNet-50", 1, GB(143), Hours(20));
  const std::size_t short_job = AddJob("ResNet-50", 1, GB(143), Hours(1));
  const double s_long = SjfScore(snapshot().jobs[long_job], snapshot(), SjfScoreMode::kComputeOnly);
  const double s_short =
      SjfScore(snapshot().jobs[short_job], snapshot(), SjfScoreMode::kComputeOnly);
  EXPECT_LT(s_short, s_long);
}

TEST_F(SchedTest, SiloDSjfPrefersCacheEfficientJobAtEqualWork) {
  // §5.1: two ResNet-50 jobs with the same steps, one on ImageNet-1k (143 GB)
  // and one on ImageNet-22k (1.3 TB): the former consumes far less cache to
  // reach f*, so its Eq. 7 score is lower.
  const std::size_t small = AddJob("ResNet-50", 1, GB(143), Hours(10));
  const std::size_t large = AddJob("ResNet-50", 1, TB(1.3), Hours(10));
  const double s_small = SjfScore(snapshot().jobs[small], snapshot(), SjfScoreMode::kSiloD);
  const double s_large = SjfScore(snapshot().jobs[large], snapshot(), SjfScoreMode::kSiloD);
  EXPECT_LT(s_small, s_large);
}

TEST_F(SchedTest, SiloDSjfSchedulerOrdersByScore) {
  AddJob("ResNet-50", 8, TB(1.3), Hours(10), /*submit=*/0);
  AddJob("ResNet-50", 8, GB(143), Hours(10), /*submit=*/1);
  SjfScheduler sjf(std::make_shared<SiloDGreedyStorage>(), SjfScoreMode::kSiloD);
  const AllocationPlan plan = sjf.Schedule(snapshot());
  // Only one 8-GPU job fits; the cache-efficient one wins despite arriving
  // later.
  EXPECT_FALSE(plan.IsRunning(0));
  EXPECT_TRUE(plan.IsRunning(1));
}

// ----------------------------------------------------------------- Gavel --

TEST_F(SchedTest, GavelEqualShareThroughput) {
  AddJob("ResNet-50", 1, GB(143));
  // Equal share of 2 TB covers the whole 143 GB dataset -> compute bound.
  EXPECT_DOUBLE_EQ(EqualShareThroughput(jobs_[0], snapshot(), 2), jobs_[0].ideal_io);
  // With 100 sharers: 20 GB cache, 2 MB/s IO -> IO bound.
  const BytesPerSec eq100 = EqualShareThroughput(jobs_[0], snapshot(), 100);
  EXPECT_NEAR(eq100, SiloDPerfThroughput(jobs_[0].ideal_io, MBps(2), TB(2) / 100, GB(143)),
              1.0);
}

TEST_F(SchedTest, GavelSolverSymmetricJobsGetEqualTargets) {
  snapshot_.resources.total_cache = TB(1.4);
  snapshot_.resources.remote_io = MBps(100);
  snapshot_.resources.per_job_remote_cap = MBps(50);
  AddJob("ResNet-50", 1, TB(1.36));
  AddJob("ResNet-50", 1, TB(1.36));
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  ASSERT_TRUE(plan.Validate(snapshot().resources).ok());
  // Fig. 4's optimum: cache split evenly, both jobs at the same speed.
  const Bytes c0 = plan.dataset_cache.at(jobs_[0].dataset);
  const Bytes c1 = plan.dataset_cache.at(jobs_[1].dataset);
  EXPECT_NEAR(static_cast<double>(c0), static_cast<double>(c1), static_cast<double>(GB(20)));
  const GavelSolution solution = SolveMaxMinFairness(snapshot(), plan);
  EXPECT_NEAR(solution.target.at(0), solution.target.at(1), MBps(1));
  // ~103-108 MB/s steady state (the paper reports 107).
  EXPECT_GT(solution.target.at(0), MBps(95));
  EXPECT_LT(solution.target.at(0), MBps(114));
}

TEST_F(SchedTest, GavelSolverRespectsConservation) {
  snapshot_.resources.total_cache = TB(1);
  snapshot_.resources.remote_io = MBps(150);
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("BERT", 4, TB(20.9));
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
  EXPECT_LE(plan.DatasetCacheTotal(), TB(1));
  BytesPerSec io = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running && !std::isinf(alloc.remote_io)) {
      io += alloc.remote_io;
    }
  }
  EXPECT_LE(io, MBps(150) * 1.001);
}

TEST_F(SchedTest, GavelSolverParetoNoLeftoverWhenConstrained) {
  // With every job IO-hungry, the solver should hand out the whole egress.
  snapshot_.resources.total_cache = GB(100);
  snapshot_.resources.remote_io = MBps(100);
  for (int i = 0; i < 4; ++i) {
    AddJob("ResNet-50", 1, TB(1.3));
  }
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  BytesPerSec io = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running && !std::isinf(alloc.remote_io)) {
      io += alloc.remote_io;
    }
  }
  EXPECT_NEAR(io, MBps(100), MBps(1));
}

TEST_F(SchedTest, GavelImprovesWorstJobOverQuiver) {
  // The qualitative claim of Fig. 4/13: the solver's worst-off job is no
  // worse than under Quiver's benefit-greedy allocation.
  snapshot_.resources.total_cache = TB(1.4);
  snapshot_.resources.remote_io = MBps(100);
  snapshot_.resources.per_job_remote_cap = MBps(50);
  AddJob("ResNet-50", 1, TB(1.36));
  AddJob("ResNet-50", 1, TB(1.36));

  GavelScheduler gavel_silod(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan_s = gavel_silod.Schedule(snapshot());
  const GavelSolution sol = SolveMaxMinFairness(snapshot(), plan_s);
  const BytesPerSec worst_silod = std::min(sol.target.at(0), sol.target.at(1));

  GavelScheduler gavel_quiver(std::make_shared<QuiverStorage>(0.0, 1), /*silod_aware=*/false);
  const AllocationPlan plan_q = gavel_quiver.Schedule(snapshot());
  // Quiver caches one dataset whole; the other job is left with its own
  // 50 MB/s cap.
  BytesPerSec worst_quiver = 1e18;
  for (int i = 0; i < 2; ++i) {
    const auto it = plan_q.dataset_cache.find(jobs_[static_cast<std::size_t>(i)].dataset);
    const Bytes c = it == plan_q.dataset_cache.end() ? 0 : it->second;
    worst_quiver = std::min(
        worst_quiver, SiloDPerfThroughput(jobs_[static_cast<std::size_t>(i)].ideal_io, MBps(50),
                                          c, TB(1.36)));
  }
  EXPECT_GT(worst_silod, worst_quiver * 1.5);
}

// A reference Gavel max-min solve: the straightforward map-based feasibility
// oracle (re-sorting every dataset on every probe) under the full 100-step
// ratio bisection.  SolveMaxMinFairness must reproduce it bit for bit.
struct RefJob {
  const JobView* view = nullptr;
  BytesPerSec base = 0;
  double speed = 1.0;
  BytesPerSec ideal = 0;
};

bool RefTargetsFeasible(const Snapshot& snapshot, const std::vector<RefJob>& jobs,
                        const std::vector<BytesPerSec>& targets,
                        std::map<DatasetId, Bytes>* dataset_cache,
                        std::vector<BytesPerSec>* required_io) {
  dataset_cache->clear();
  required_io->assign(jobs.size(), 0);
  const BytesPerSec cap = snapshot.resources.per_job_remote_cap;
  std::map<DatasetId, Bytes> floor;
  std::map<DatasetId, double> saving_rate;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Dataset& d = snapshot.catalog->Get(jobs[i].view->spec->dataset);
    saving_rate[d.id] += targets[i] / static_cast<double>(d.size);
    if (std::isfinite(cap) && targets[i] > cap) {
      const double frac = 1.0 - cap / targets[i];
      const Bytes need = static_cast<Bytes>(frac * static_cast<double>(d.size)) + 1;
      Bytes& slot = floor[d.id];
      slot = std::max(slot, std::min(need, d.size));
    }
  }
  Bytes remaining = snapshot.resources.total_cache;
  for (const auto& [dataset_id, need] : floor) {
    (*dataset_cache)[dataset_id] = need;
    remaining -= need;
  }
  if (remaining < 0) {
    return false;
  }
  std::vector<std::pair<DatasetId, double>> order(saving_rate.begin(), saving_rate.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  for (const auto& [dataset_id, rate] : order) {
    if (remaining <= 0) {
      break;
    }
    Bytes& slot = (*dataset_cache)[dataset_id];
    const Bytes grant = std::min(snapshot.catalog->Get(dataset_id).size - slot, remaining);
    slot += grant;
    remaining -= grant;
  }
  BytesPerSec total_io = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Dataset& d = snapshot.catalog->Get(jobs[i].view->spec->dataset);
    auto it = dataset_cache->find(d.id);
    const Bytes cache = it == dataset_cache->end() ? 0 : it->second;
    (*required_io)[i] = RequiredRemoteIo(targets[i], cache, d.size);
    if ((*required_io)[i] > cap * (1.0 + 1e-12)) {
      return false;
    }
    total_io += (*required_io)[i];
  }
  return total_io <= snapshot.resources.remote_io * (1.0 + 1e-12);
}

GavelSolution RefSolveMaxMinFairness(const Snapshot& snapshot, const AllocationPlan& plan) {
  GavelSolution solution;
  std::vector<RefJob> jobs;
  for (const JobView& view : snapshot.jobs) {
    if (plan.IsRunning(view.spec->id)) {
      RefJob j;
      j.view = &view;
      j.speed = plan.Get(view.spec->id).speed;
      j.ideal = EffectiveIdeal(view.spec->ideal_io, j.speed);
      jobs.push_back(j);
    }
  }
  if (jobs.empty()) {
    return solution;
  }
  const EqualShareParams eq =
      MakeEqualShareParams(snapshot.resources, static_cast<int>(jobs.size()));
  for (RefJob& j : jobs) {
    j.base = EqualShareThroughput(*j.view->spec, j.speed, *snapshot.catalog, eq);
    if (j.base <= 0) {
      j.base = EffectiveIdeal(j.view->spec->ideal_io, j.speed) * 1e-9;
    }
  }
  auto targets_at = [&](double rho) {
    std::vector<BytesPerSec> t(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      t[i] = std::min(rho * jobs[i].base, jobs[i].ideal);
    }
    return t;
  };
  std::map<DatasetId, Bytes> cache;
  std::vector<BytesPerSec> required;
  double hi = 1.0;
  for (const RefJob& j : jobs) {
    hi = std::max(hi, j.ideal / j.base);
  }
  double lo = 0.0;
  if (RefTargetsFeasible(snapshot, jobs, targets_at(hi), &cache, &required)) {
    lo = hi;
  } else {
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (RefTargetsFeasible(snapshot, jobs, targets_at(mid), &cache, &required)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  const double rho = lo;
  EXPECT_TRUE(RefTargetsFeasible(snapshot, jobs, targets_at(rho), &cache, &required));
  BytesPerSec used = 0;
  for (BytesPerSec b : required) {
    used += b;
  }
  const BytesPerSec leftover = std::max(0.0, snapshot.resources.remote_io - used);
  std::vector<BytesPerSec> extra_demand(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Dataset& d = snapshot.catalog->Get(jobs[i].view->spec->dataset);
    auto it = cache.find(d.id);
    const Bytes c = it == cache.end() ? 0 : it->second;
    const BytesPerSec max_b =
        std::min(RemoteIoDemand(jobs[i].ideal, c, d.size), snapshot.resources.per_job_remote_cap);
    extra_demand[i] = std::max(0.0, max_b - required[i]);
  }
  const std::vector<BytesPerSec> extra = MaxMinShare(extra_demand, leftover);
  solution.fairness_ratio = rho;
  solution.dataset_cache = std::move(cache);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobId id = jobs[i].view->spec->id;
    solution.remote_io[id] = required[i] + extra[i];
    const Dataset& d = snapshot.catalog->Get(jobs[i].view->spec->dataset);
    auto it = solution.dataset_cache.find(d.id);
    const Bytes c = it == solution.dataset_cache.end() ? 0 : it->second;
    solution.target[id] = SiloDPerfThroughput(jobs[i].ideal, solution.remote_io[id], c, d.size);
  }
  return solution;
}

TEST(GavelSolver, MatchesReferenceOracle) {
  Rng rng(20230508);
  const double kSpeeds[] = {0.4, 1.0, 2.0};
  int bisected = 0;
  int all_at_ideal = 0;
  int floors_over_pool = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Shape: trial 0 has no running job, trial 1 one job, the rest 2-40 jobs
    // over fewer datasets than jobs (so datasets are shared).
    const std::uint64_t num_jobs = trial == 0 ? 3 : trial == 1 ? 1 : 2 + rng.NextBelow(39);
    const std::uint64_t num_datasets =
        1 + rng.NextBelow(std::max<std::uint64_t>(1, num_jobs * 2 / 3));
    DatasetCatalog catalog;
    for (std::uint64_t d = 0; d < num_datasets; ++d) {
      catalog.Add("ds" + std::to_string(d), GB(rng.Uniform(20, 3000)), MB(64));
    }
    std::deque<JobSpec> specs;
    Snapshot snapshot;
    snapshot.catalog = &catalog;
    snapshot.resources.total_gpus = static_cast<int>(4 * num_jobs);
    snapshot.resources.total_cache = GB(rng.Uniform(1, 5000));
    snapshot.resources.remote_io = MBps(rng.Uniform(20, 1000));
    if (trial % 4 == 3) {
      snapshot.resources.remote_io = MBps(1e9);  // Every job reaches f*.
    } else if (rng.NextDouble() < 0.6) {
      // A finite per-job cap makes cache floors bind; small pools put the
      // floors' sum above total_cache.
      snapshot.resources.per_job_remote_cap = MBps(rng.Uniform(5, 150));
    }
    AllocationPlan plan;
    for (std::uint64_t j = 0; j < num_jobs; ++j) {
      JobSpec spec;
      spec.id = static_cast<JobId>(j);
      spec.num_gpus = 1;
      spec.dataset = static_cast<DatasetId>(rng.NextBelow(num_datasets));
      spec.ideal_io = MBps(rng.Uniform(10, 500));
      spec.total_bytes = TB(10);
      specs.push_back(spec);
      if (trial != 0 && rng.NextDouble() < 0.9) {
        JobAllocation& alloc = plan.jobs[spec.id];
        alloc.running = true;
        alloc.gpus = 1;
        alloc.speed = kSpeeds[rng.NextBelow(3)];
      }
    }
    if (trial == 1) {
      plan.jobs[0].running = true;
      plan.jobs[0].gpus = 1;
    }
    for (const JobSpec& spec : specs) {
      JobView view;
      view.spec = &spec;
      view.remaining_bytes = spec.total_bytes;
      snapshot.jobs.push_back(view);
    }

    const GavelSolution want = RefSolveMaxMinFairness(snapshot, plan);
    const GavelSolution got = SolveMaxMinFairness(snapshot, plan);
    EXPECT_EQ(got.fairness_ratio, want.fairness_ratio);
    EXPECT_EQ(got.dataset_cache, want.dataset_cache);
    EXPECT_EQ(got.remote_io, want.remote_io);
    EXPECT_EQ(got.target, want.target);

    // Coverage of the regimes the oracle distinguishes.
    const int num_running = static_cast<int>(want.target.size());
    const EqualShareParams eq = MakeEqualShareParams(snapshot.resources, std::max(1, num_running));
    double hi = 1.0;
    Bytes floor_sum = 0;
    std::map<DatasetId, Bytes> floors;
    for (const JobView& view : snapshot.jobs) {
      if (!plan.IsRunning(view.spec->id)) {
        continue;
      }
      const double speed = plan.Get(view.spec->id).speed;
      const BytesPerSec ideal = EffectiveIdeal(view.spec->ideal_io, speed);
      hi = std::max(hi, ideal / EqualShareThroughput(*view.spec, speed, catalog, eq));
      const BytesPerSec cap = snapshot.resources.per_job_remote_cap;
      if (std::isfinite(cap) && ideal > cap) {
        const Bytes size = catalog.Get(view.spec->dataset).size;
        const Bytes need =
            static_cast<Bytes>((1.0 - cap / ideal) * static_cast<double>(size)) + 1;
        floors[view.spec->dataset] = std::max(floors[view.spec->dataset], std::min(need, size));
      }
    }
    for (const auto& [id, need] : floors) {
      floor_sum += need;
    }
    if (num_running > 0) {
      ++(want.fairness_ratio == hi ? all_at_ideal : bisected);
    }
    if (floor_sum > snapshot.resources.total_cache) {
      ++floors_over_pool;
    }
  }
  EXPECT_GT(bisected, 150);
  EXPECT_GT(all_at_ideal, 100);
  EXPECT_GT(floors_over_pool, 50);
}

// -------------------------------------------------- Baseline storage plans --

TEST_F(SchedTest, AlluxioPlanIsSharedLruWithNoAllocations) {
  AddJob("ResNet-50", 1, GB(143));
  FifoScheduler fifo(std::make_shared<AlluxioStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.cache_model, CacheModelKind::kSharedLru);
  EXPECT_FALSE(plan.manages_remote_io);
  EXPECT_TRUE(plan.dataset_cache.empty());
}

TEST_F(SchedTest, CoorDlGivesStaticSharesByGpu) {
  AddJob("BERT", 4, TB(20.9));
  AddJob("ResNet-50", 1, TB(1.3));
  FifoScheduler fifo(std::make_shared<CoorDlStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.cache_model, CacheModelKind::kPerJobStatic);
  EXPECT_EQ(plan.Get(0).private_cache, TB(1));    // 4/8 of 2 TB.
  EXPECT_EQ(plan.Get(1).private_cache, GB(250));  // 1/8 of 2 TB.
}

TEST_F(SchedTest, QuiverPlanCachesWholeBestDataset) {
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  FifoScheduler fifo(std::make_shared<QuiverStorage>(0.0, 1));
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.dataset_cache.at(jobs_[0].dataset), TB(1.3));
  EXPECT_EQ(plan.dataset_cache.count(jobs_[1].dataset), 0u);  // 0.7 TB wasted.
}

TEST_F(SchedTest, QuiverRetentionPreventsFlipFlop) {
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("ResNet-50", 1, TB(1.3));
  auto storage = std::make_shared<QuiverStorage>(0.25, 42);
  FifoScheduler fifo(storage);
  const AllocationPlan first = fifo.Schedule(snapshot());
  const DatasetId winner = first.dataset_cache.begin()->first;
  for (int round = 0; round < 50; ++round) {
    const AllocationPlan plan = fifo.Schedule(snapshot());
    ASSERT_EQ(plan.dataset_cache.size(), 1u);
    EXPECT_EQ(plan.dataset_cache.begin()->first, winner) << "round " << round;
  }
}

// ------------------------------------------------------------- Validation --

TEST_F(SchedTest, ValidateCatchesGpuOverCommit) {
  AddJob("ResNet-50", 8, GB(143));
  AllocationPlan plan;
  plan.jobs[0] = JobAllocation{true, 16, 0, kUnlimitedRate};
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateCatchesCacheOverCommit) {
  AllocationPlan plan;
  plan.dataset_cache[0] = TB(3);
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

// Regression: allocators derive byte quotas from floating-point shares, so a
// plan handing out exactly total_cache can overshoot by a rounding residue.
// Validate must tolerate that (same epsilon as the remote-IO check) while
// still rejecting real over-commit.
TEST_F(SchedTest, ValidateToleratesCacheRoundingResidue) {
  AllocationPlan plan;
  plan.dataset_cache[0] = snapshot().resources.total_cache + 1;  // One byte of residue.
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());

  plan.dataset_cache[0] = snapshot().resources.total_cache + MB(1);  // Genuine over-commit.
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());

  // Private (per-job-static) shares count against the same pool.
  AllocationPlan coordl;
  coordl.cache_model = CacheModelKind::kPerJobStatic;
  coordl.jobs[0] = JobAllocation{true, 1, snapshot().resources.total_cache / 2 + 1,
                                 kUnlimitedRate};
  coordl.jobs[1] = JobAllocation{true, 1, snapshot().resources.total_cache / 2 + 1,
                                 kUnlimitedRate};
  EXPECT_TRUE(coordl.Validate(snapshot().resources).ok());  // 2 bytes of residue.
  coordl.jobs[1] = JobAllocation{true, 1, snapshot().resources.total_cache, kUnlimitedRate};
  EXPECT_FALSE(coordl.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateCatchesAllocationsToIdleJobs) {
  AllocationPlan plan;
  plan.jobs[0] = JobAllocation{false, 2, 0, kUnlimitedRate};
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateAcceptsAllSchedulers) {
  for (int i = 0; i < 12; ++i) {
    AddJob(i % 3 == 0 ? "BERT" : "ResNet-50", 1 + (i % 4), TB(1.3), Hours(2), i * 60.0);
  }
  const std::vector<std::shared_ptr<Scheduler>> schedulers = {
      std::make_shared<FifoScheduler>(std::make_shared<SiloDGreedyStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<AlluxioStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<CoorDlStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<QuiverStorage>()),
      std::make_shared<SjfScheduler>(std::make_shared<SiloDGreedyStorage>(),
                                     SjfScoreMode::kSiloD),
      std::make_shared<SjfScheduler>(std::make_shared<AlluxioStorage>(),
                                     SjfScoreMode::kComputeOnly),
      std::make_shared<GavelScheduler>(nullptr, true),
      std::make_shared<GavelScheduler>(std::make_shared<QuiverStorage>(), false),
  };
  for (const auto& scheduler : schedulers) {
    const AllocationPlan plan = scheduler->Schedule(snapshot());
    EXPECT_TRUE(plan.Validate(snapshot().resources).ok()) << scheduler->name();
  }
}

// --------------------------------------------------- AdmitByOrder backfill --

TEST_F(SchedTest, AdmitByOrderBackfillsPastSkippedLargeJob) {
  AddJob("ResNet-50", 6, GB(143));
  AddJob("ResNet-50", 4, GB(143));  // Skipped: only 2 GPUs free.
  AddJob("ResNet-50", 2, GB(143));  // Backfills behind the skipped job.
  AllocationPlan plan;
  AdmitByOrder(snapshot(), {0, 1, 2}, &plan);
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
}

TEST_F(SchedTest, AdmitByOrderChargesRunningJobsBeforeTheOrder) {
  AddJob("ResNet-50", 4, GB(143));
  AddJob("ResNet-50", 6, GB(143));  // Skipped: the running job holds 4 GPUs.
  AddJob("ResNet-50", 4, GB(143));  // Fits exactly in the remainder.
  snapshot().jobs[0].running = true;
  AllocationPlan plan;
  AdmitByOrder(snapshot(), {1, 2, 0}, &plan);  // Order puts the big job first.
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
}

TEST_F(SchedTest, AdmitByOrderPreemptiveSuspendsRunningJobOutsideAdmittedPrefix) {
  AddJob("ResNet-50", 4, GB(143));
  AddJob("ResNet-50", 6, GB(143));
  AddJob("ResNet-50", 2, GB(143));
  snapshot().jobs[0].running = true;  // Running, but last in the new order.
  AllocationPlan plan;
  AdmitByOrderPreemptive(snapshot(), {1, 2, 0}, &plan);
  EXPECT_TRUE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_FALSE(plan.IsRunning(0));  // Suspended: no room after the prefix.
  EXPECT_EQ(plan.GpusUsed(), 8);
}

// ------------------------------------------------------------ ZoneSpreader --

TEST(ZoneSpread, SharesSumToQuotaAndRespectLossBound) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);  // rack0 + 4 singletons.
  ZoneSpreader spreader(topology, GB(80), 8);

  const std::vector<Bytes> shares = spreader.Spread(GB(40));
  ASSERT_EQ(shares.size(), 5u);
  Bytes sum = 0;
  for (const Bytes share : shares) {
    EXPECT_GE(share, 0);
    sum += share;
  }
  EXPECT_EQ(sum, GB(40));
  // Bound satisfiable here (5 zones x 0.25 > 1): no zone exceeds it.
  EXPECT_LE(ZoneSpreader::WorstCaseLoss(shares), GB(10) + 1);
}

TEST(ZoneSpread, CapacityBindsAndLossBoundRelaxesGracefully) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);
  ZoneSpreader spreader(topology, GB(80), 8);

  // The whole pool: the bound cannot absorb it, capacity still must.
  const std::vector<Bytes> shares = spreader.Spread(GB(80));
  Bytes sum = 0;
  for (std::size_t z = 0; z < shares.size(); ++z) {
    const Bytes capacity = GB(80) * topology.zones()[z].size() / 8;
    EXPECT_LE(shares[z], capacity + 1) << "zone " << topology.zones()[z].name;
    sum += shares[z];
  }
  EXPECT_EQ(sum, GB(80));
  EXPECT_GT(ZoneSpreader::WorstCaseLoss(shares), GB(20));  // Bound relaxed.
}

TEST(ZoneSpread, StatefulAcrossDatasetsNeverOverfillsAZone) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.5");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);
  ZoneSpreader spreader(topology, GB(80), 8);

  const std::vector<Bytes> first = spreader.Spread(GB(40));
  const std::vector<Bytes> second = spreader.Spread(GB(40));
  for (std::size_t z = 0; z < first.size(); ++z) {
    const Bytes capacity = GB(80) * topology.zones()[z].size() / 8;
    EXPECT_LE(first[z] + second[z], capacity + 1) << "zone " << topology.zones()[z].name;
  }
}

TEST(ZoneSpread, WorstCaseZoneFractionTracksLargestExposure) {
  const Result<ClusterTopology> bounded = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(bounded.ok());
  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(bounded->Cover(8), 8), 0.25);

  const Result<ClusterTopology> loose = ClusterTopology::Parse("rack0=0-3;loss-bound=0.8");
  ASSERT_TRUE(loose.ok());
  // The rack holds half the servers: capacity caps the exposure below 0.8.
  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(loose->Cover(8), 8), 0.5);

  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(ClusterTopology(), 8), 1.0);
}

}  // namespace
}  // namespace silod
