// Tests for src/sim: metrics and both engines — including the
// engine-vs-closed-form and engine-vs-engine fidelity checks that mirror the
// paper's own simulator validation (§7.1.1/§7.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/sched/fifo.h"
#include "src/sched/greedy.h"
#include "src/sched/storage_policies.h"
#include "src/sim/fine_engine.h"
#include "src/sim/flow_engine.h"
#include "src/sim/metrics.h"

namespace silod {
namespace {

// ---------------------------------------------------------------- Metrics --

TEST(Metrics, JctAndMakespan) {
  MetricsCollector collector;
  JobSpec a;
  a.id = 0;
  a.submit_time = 0;
  JobSpec b;
  b.id = 1;
  b.submit_time = 100;
  collector.OnSubmit(a);
  collector.OnSubmit(b);
  collector.OnStart(0, 10);
  collector.OnFinish(0, 110);
  EXPECT_FALSE(collector.AllFinished());
  collector.OnStart(1, 120);
  collector.OnFinish(1, 400);
  EXPECT_TRUE(collector.AllFinished());
  const SimResult result = collector.Finalize();
  EXPECT_DOUBLE_EQ(result.jobs[0].Jct(), 110);
  EXPECT_DOUBLE_EQ(result.jobs[1].Jct(), 300);
  EXPECT_DOUBLE_EQ(result.AvgJctSeconds(), 205);
  EXPECT_DOUBLE_EQ(result.makespan, 400);
}

// -------------------------------------------------- Engine test scaffolding --

// A small single-job trace: `epochs` passes over a 10 GB dataset at
// f* = 114 MB/s.
Trace SingleJobTrace(double epochs, Bytes dataset_size = GB(10)) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("data", dataset_size, MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(dataset_size));
  trace.jobs.push_back(job);
  return trace;
}

SimConfig SmallCluster(Bytes cache, BytesPerSec egress) {
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = cache;
  config.resources.remote_io = egress;
  config.resources.num_servers = 2;
  config.reschedule_period = Minutes(5);
  return config;
}

double RunJct(const Trace& trace, EngineKind engine, CacheSystem cache, SimConfig sim,
              SchedulerKind scheduler = SchedulerKind::kFifo) {
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.sim = sim;
  config.engine = engine;
  const SimResult result = RunExperiment(trace, config);
  return result.AvgJctSeconds();
}

// ------------------------------------------------------------- FlowEngine --

TEST(FlowEngine, ComputeBoundJobRunsAtIdealSpeed) {
  const Trace trace = SingleJobTrace(2.0);
  // Egress far above f*: never IO bound.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(0, GBps(10)));
  EXPECT_NEAR(jct, trace.jobs[0].IdealDuration(), 1.0);
}

TEST(FlowEngine, IoBoundJobRunsAtEgressSpeed) {
  const Trace trace = SingleJobTrace(2.0);
  // No cache, 20 MB/s egress: the whole job runs at 20 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(0, MBps(20)));
  EXPECT_NEAR(jct, static_cast<double>(trace.jobs[0].total_bytes) / MBps(20), 2.0);
}

TEST(FlowEngine, CacheKicksInAfterFirstEpoch) {
  const Trace trace = SingleJobTrace(3.0);
  // Full cache allocation, 20 MB/s egress: epoch 1 at 20 MB/s (cold, §6
  // delayed effectiveness), epochs 2-3 at f* = 114 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(GB(10), MBps(20)));
  const double expected = 1e10 / MBps(20) + 2e10 / MBps(114);
  EXPECT_NEAR(jct, expected, 0.02 * expected);
}

TEST(FlowEngine, PartialCachePartialSpeedup) {
  const Trace trace = SingleJobTrace(5.0);
  // Half the dataset cached: steady state f = b/(1-c/d) = 20/0.5 = 40 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(GB(5), MBps(20)));
  const double expected = 1e10 / MBps(20)            // Cold epoch 1.
                          + 4e10 / MBps(40);         // Steady epochs.
  EXPECT_NEAR(jct, expected, 0.05 * expected);
}

TEST(FlowEngine, RemoteIoUsageNeverExceedsEgress) {
  TraceOptions options;
  options.num_jobs = 30;
  options.median_duration = Minutes(20);
  options.mean_interarrival = Minutes(2);
  options.seed = 4;
  const Trace trace = TraceGenerator(options).Generate();
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(TB(2), MBps(300));
  config.sim.resources.total_gpus = 16;
  const SimResult result = RunExperiment(trace, config);
  for (const auto& [t, io] : result.remote_io_usage.points()) {
    EXPECT_LE(io, MBps(300) * 1.001) << "at t=" << t;
  }
}

TEST(FlowEngine, AllCacheSystemsCompleteAllJobs) {
  TraceOptions options;
  options.num_jobs = 20;
  options.median_duration = Minutes(15);
  options.seed = 8;
  const Trace trace = TraceGenerator(options).Generate();
  for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kAlluxio,
                                  CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cache);
    config.sim = SmallCluster(TB(1), MBps(200));
    config.sim.resources.total_gpus = 16;
    const SimResult result = RunExperiment(trace, config);
    EXPECT_EQ(result.jobs.size(), trace.jobs.size()) << CacheSystemName(cache);
    for (const JobResult& j : result.jobs) {
      EXPECT_GE(j.finish_time, 0) << CacheSystemName(cache);
      EXPECT_GE(j.Jct(), 0) << CacheSystemName(cache);
    }
  }
}

TEST(FlowEngine, SchedulersRespectArrivalCausality) {
  TraceOptions options;
  options.num_jobs = 15;
  options.seed = 12;
  const Trace trace = TraceGenerator(options).Generate();
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
    ExperimentConfig config;
    config.policy = PolicyName(kind, CacheSystem::kSiloD);
    config.sim = SmallCluster(TB(1), MBps(200));
    config.sim.resources.total_gpus = 16;
    const SimResult result = RunExperiment(trace, config);
    for (const JobResult& j : result.jobs) {
      EXPECT_GE(j.first_start_time, j.submit_time - 1e-6) << SchedulerKindName(kind);
      EXPECT_GE(j.finish_time, j.first_start_time) << SchedulerKindName(kind);
    }
  }
}

TEST(FlowEngine, EffectiveCacheRampsUp) {
  const Trace trace = SingleJobTrace(4.0);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(10), MBps(50));
  const SimResult result = RunExperiment(trace, config);
  // Cold at the start, fully effective near the end (Fig. 8's ramp).
  const double early = result.effective_cache_ratio.ValueAt(1.0);
  const double late = result.effective_cache_ratio.ValueAt(result.makespan * 0.9);
  EXPECT_LT(early, 0.1);
  EXPECT_GT(late, 0.95);
}

// ------------------------------------------------------------- FineEngine --

TEST(FineEngine, ComputeBoundJobMatchesClosedForm) {
  const Trace trace = SingleJobTrace(2.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(0, GBps(10)));
  EXPECT_NEAR(jct, trace.jobs[0].IdealDuration(), 0.02 * trace.jobs[0].IdealDuration());
}

TEST(FineEngine, IoBoundJobMatchesClosedForm) {
  const Trace trace = SingleJobTrace(2.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(0, MBps(20)));
  const double expected = static_cast<double>(trace.jobs[0].total_bytes) / MBps(20);
  EXPECT_NEAR(jct, expected, 0.02 * expected);
}

TEST(FineEngine, UniformCacheHitRatioMatchesClosedForm) {
  // Steady-state throughput with half the dataset cached must match Eq. 4.
  const Trace trace = SingleJobTrace(6.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(GB(5), MBps(20)));
  const double expected = 1e10 / MBps(20) + 5e10 / MBps(40);
  EXPECT_NEAR(jct, expected, 0.06 * expected);
}

TEST(FineEngine, SharedLruThrashesBelowUniform) {
  // Same scenario, Alluxio's LRU vs SiloD's uniform caching: LRU's scan
  // thrashing yields a clearly longer JCT (§7.1.1).
  const Trace trace = SingleJobTrace(6.0);
  const SimConfig sim = SmallCluster(GB(5), MBps(20));
  const double uniform = RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, sim);
  const double lru = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio, sim);
  EXPECT_GT(lru, 1.15 * uniform);
}

TEST(FineEngine, LruStillBeatsNoCache) {
  const Trace trace = SingleJobTrace(6.0);
  const double lru = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio,
                            SmallCluster(GB(5), MBps(20)));
  const double none = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio,
                             SmallCluster(MB(16), MBps(20)));
  EXPECT_LT(lru, none);
}

TEST(FineEngine, TwoJobsShareEgressFairly) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("a", GB(10), MB(16));
  const DatasetId d1 = trace.catalog.Add("b", GB(10), MB(16));
  JobSpec j0 = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  j0.total_bytes = GB(10);
  JobSpec j1 = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, 0);
  j1.total_bytes = GB(10);
  trace.jobs = {j0, j1};
  // No cache, 40 MB/s egress: each runs at ~20 MB/s, both finish together.
  ExperimentConfig config;
  config.policy = "fifo+alluxio";
  config.sim = SmallCluster(0, MBps(40));
  config.engine = EngineKind::kFine;
  const SimResult result = RunExperiment(trace, config);
  const double expected = 1e10 / MBps(20);
  EXPECT_NEAR(result.jobs[0].Jct(), expected, 0.05 * expected);
  EXPECT_NEAR(result.jobs[1].Jct(), expected, 0.05 * expected);
}

// ---------------------------------------------------------- Event calendar --

// Seeded multi-job trace with mixed dataset sizes, shared datasets, staggered
// arrivals and a few curriculum jobs — enough variety to exercise every phase
// transition of the stepping loop.
Trace SeededMixTrace(int num_jobs, std::uint64_t seed) {
  const ModelZoo zoo;
  Rng rng(seed);
  Trace trace;
  for (int i = 0; i < num_jobs; ++i) {
    const Bytes dataset_size = GB(0.5 + 2.0 * rng.NextDouble());
    const DatasetId d =
        trace.catalog.Add("mix" + std::to_string(i), dataset_size, MB(16));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo,
                          i % 3 == 0 ? "EfficientNetB1" : "ResNet-50", 1, d, 1.0,
                          /*submit_time=*/Minutes(1) * i);
    job.total_bytes = static_cast<Bytes>((1.5 + 2.0 * rng.NextDouble()) *
                                         static_cast<double>(dataset_size));
    if (i % 16 == 7) {
      job.curriculum = true;
      job.regular = false;
      job.curriculum_params.step = 100;
    }
    trace.jobs.push_back(job);
  }
  return trace;
}

// The event-calendar and linear-scan stepping paths share all fluid
// arithmetic; any divergence in event indexing shows up as a bit-level
// difference in job times or sampled series.
TEST(FineEngine, CalendarStepBitIdenticalToLinearScan) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/64, /*seed=*/21);
  SimConfig sim = SmallCluster(GB(40), MBps(400));
  sim.resources.total_gpus = 64;
  for (const CacheSystem cache :
       {CacheSystem::kSiloD, CacheSystem::kAlluxio, CacheSystem::kCoorDl}) {
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cache);
    config.sim = sim;
    config.engine = EngineKind::kFine;

    config.fine.use_linear_scan = false;
    const SimResult calendar = RunExperiment(trace, config);
    config.fine.use_linear_scan = true;
    const SimResult linear = RunExperiment(trace, config);

    EXPECT_TRUE(PhysicallyIdentical(calendar, linear)) << CacheSystemName(cache);
    // The same events must fire on both paths; only indexing work may differ.
    EXPECT_EQ(calendar.steps.steps, linear.steps.steps) << CacheSystemName(cache);
    EXPECT_EQ(calendar.steps.miss_completions, linear.steps.miss_completions)
        << CacheSystemName(cache);
    EXPECT_EQ(calendar.steps.hit_completions, linear.steps.hit_completions)
        << CacheSystemName(cache);
    EXPECT_EQ(calendar.steps.unblocks, linear.steps.unblocks) << CacheSystemName(cache);
    EXPECT_EQ(calendar.steps.drains, linear.steps.drains) << CacheSystemName(cache);
    EXPECT_EQ(calendar.steps.flow_recomputes, linear.steps.flow_recomputes)
        << CacheSystemName(cache);
    EXPECT_GT(calendar.steps.calendar_updates, 0u) << CacheSystemName(cache);
    EXPECT_EQ(linear.steps.calendar_updates, 0u) << CacheSystemName(cache);
  }
}

TEST(FineEngine, StepCountersAccountForEveryBlock) {
  const Trace trace = SingleJobTrace(3.0);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(10), MBps(50));
  config.engine = EngineKind::kFine;
  const SimResult result = RunExperiment(trace, config);
  // 10 GB / 16 MB = 625 blocks per epoch, 3 epochs; every block completes as
  // exactly one miss or hit.
  EXPECT_EQ(result.steps.miss_completions + result.steps.hit_completions, 1875u);
  EXPECT_EQ(result.steps.drains, 1u);
  EXPECT_GT(result.steps.steps, 0u);
}

// Regression: curriculum jobs never cross an epoch boundary, so the
// per-job-static (CoorDL) model must not gate their effective cache on
// epochs_done — before the fix they permanently reported zero.
TEST(FineEngine, CurriculumJobReportsEffectiveCacheUnderCoorDl) {
  const ModelZoo zoo;
  Trace trace;
  const Bytes dataset_size = GB(2);
  const DatasetId d = trace.catalog.Add("sorted", dataset_size, MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 3 * dataset_size;
  job.curriculum = true;
  job.regular = false;
  job.curriculum_params.step = 50;  // Coverage expands quickly.
  trace.jobs.push_back(job);

  ExperimentConfig config;
  config.policy = "fifo+coordl";
  config.sim = SmallCluster(GB(1), MBps(50));
  config.engine = EngineKind::kFine;
  config.fine.sample_period = 2.0;  // The run lasts ~1 min of sim time.
  const SimResult result = RunExperiment(trace, config);
  EXPECT_GT(result.effective_cache_ratio.ValueAt(result.makespan * 0.9), 0.5);
}

// Regression: a job draining its last blocks frees its GPUs at the finish
// instant, and that must trigger an immediate reschedule — a queued job
// starts right there, not at the next periodic tick (which could be up to
// reschedule_period later).  Both stepping paths once shared this omission,
// so the bit-identity test alone cannot catch it; assert the absolute start
// time on each path.
TEST(FineEngine, QueuedJobStartsAtPredecessorFinishNotNextTick) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("serial", GB(5), MB(16));
  for (int i = 0; i < 2; ++i) {
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, "ResNet-50", 1, d, 1.0, 0);
    job.total_bytes = GB(5);
    trace.jobs.push_back(job);
  }
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(5), GBps(10));
  config.sim.resources.total_gpus = 1;  // The jobs must run back to back.
  config.engine = EngineKind::kFine;
  for (const bool linear : {false, true}) {
    config.fine.use_linear_scan = linear;
    const SimResult result = RunExperiment(trace, config);
    const double finish0 = result.jobs[0].finish_time;
    // Job 0 is compute bound and finishes well inside the first 5-minute
    // reschedule period; job 1 must not idle until that tick.
    ASSERT_LT(finish0, Minutes(5)) << "linear=" << linear;
    EXPECT_NEAR(result.jobs[1].first_start_time, finish0, 1e-6) << "linear=" << linear;
  }
}

// An empty trace is a caller error on both engines: the constructor stops it
// before the run reads a first arrival that does not exist.
TEST(FineEngine, EmptyTraceDies) {
  ExperimentConfig config;
  config.engine = EngineKind::kFine;
  EXPECT_DEATH({ RunExperiment(Trace{}, config); }, "empty trace");
}

TEST(FlowEngine, EmptyTraceDies) {
  ExperimentConfig config;
  config.engine = EngineKind::kFlow;
  EXPECT_DEATH({ RunExperiment(Trace{}, config); }, "empty trace");
}

// --------------------------------------------------------------- Fidelity --

// The §7.2-style cross-validation: both engines run the same multi-job trace
// and must agree on average JCT and makespan within a few percent (the paper
// reports simulator errors of up to 5.7% / 8.5%).
class EngineFidelityTest : public ::testing::TestWithParam<CacheSystem> {};

TEST_P(EngineFidelityTest, FlowMatchesFine) {
  const ModelZoo zoo;
  Trace trace;
  // A scaled-down micro-benchmark: 4 image jobs + 1 BERT-like job.
  for (int i = 0; i < 4; ++i) {
    const DatasetId d = trace.catalog.Add("img" + std::to_string(i), GB(13), MB(16));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, i < 2 ? "ResNet-50" : "EfficientNetB1", 1,
                          d, 1.0, 0);
    job.total_bytes = GB(13) * (i < 2 ? 5 : 4);
    trace.jobs.push_back(job);
  }
  const DatasetId web = trace.catalog.Add("web", GB(209), MB(16));
  JobSpec bert = MakeJob(4, zoo, "BERT", 4, web, 1.0, 0);
  bert.total_bytes = GB(15);
  trace.jobs.push_back(bert);

  const SimConfig sim = SmallCluster(GB(20), MBps(20));
  ExperimentConfig config;
  config.policy = PolicyName(SchedulerKind::kFifo, GetParam());
  config.sim = sim;

  config.engine = EngineKind::kFine;
  const SimResult fine = RunExperiment(trace, config);
  config.engine = EngineKind::kFlow;
  const SimResult flow = RunExperiment(trace, config);

  EXPECT_NEAR(flow.AvgJctSeconds(), fine.AvgJctSeconds(), 0.08 * fine.AvgJctSeconds())
      << CacheSystemName(GetParam());
  EXPECT_NEAR(flow.makespan, fine.makespan, 0.10 * fine.makespan)
      << CacheSystemName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(CacheSystems, EngineFidelityTest,
                         ::testing::Values(CacheSystem::kSiloD, CacheSystem::kCoorDl,
                                           CacheSystem::kQuiver),
                         [](const auto& info) { return CacheSystemName(info.param); });

// ----------------------------------------------------- Zone-aware placement --

// A rack crash against a zone-aware plan costs at most the loss-bounded share
// of the dataset (attributed to the rack), versus the rack's full
// capacity-proportional slice under oblivious placement.
TEST(FlowEngine, ZoneCrashLossBoundedAndAttributedPerZone) {
  const Trace trace = SingleJobTrace(/*epochs=*/60, GB(40));

  FaultPlan faults;
  for (int s = 0; s < 4; ++s) {  // The whole rack, one server at a time.
    faults.events.push_back({Hours(1) + s, FaultKind::kCacheServerCrash, s});
    faults.events.push_back({Hours(2) + s, FaultKind::kCacheServerRecover, s});
  }

  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(80), MBps(500));
  config.sim.resources.num_servers = 8;
  config.sim.faults = faults;
  const SimResult oblivious = RunExperiment(trace, config);
  EXPECT_TRUE(oblivious.faults.blocks_lost_by_zone.empty());

  const Result<ClusterTopology> topology = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(topology.ok());
  config.sim.topology = *topology;
  const SimResult aware = RunExperiment(trace, config);

  // The rack held half the cache servers but at most a quarter of the quota.
  EXPECT_GT(aware.faults.bytes_lost, 0);
  EXPECT_LT(aware.faults.bytes_lost, oblivious.faults.bytes_lost);
  EXPECT_LE(aware.faults.bytes_lost, 0.25 * static_cast<double>(GB(40)) + MB(64));
  ASSERT_EQ(aware.faults.blocks_lost_by_zone.size(), 1u);
  EXPECT_EQ(aware.faults.blocks_lost_by_zone.begin()->first, "rack0");
}

// ---------------------------------------------------------- Heterogeneity --

// Declaring a GPU-type table whose speeds are all 1.0 must be a bit-for-bit
// no-op: the typed admission path multiplies every ideal by exactly 1.0, so
// both engines and every scheduler must reproduce the untyped run.
TEST(Heterogeneity, UniformTypedFleetBitIdenticalToUntyped) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/48, /*seed=*/9);
  const Result<ClusterTopology> typed =
      ClusterTopology::Parse("gpu-type name=v100 count=8 speed=1");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  for (const EngineKind engine : {EngineKind::kFlow, EngineKind::kFine}) {
    for (const SchedulerKind scheduler :
         {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
      ExperimentConfig config;
      config.engine = engine;
      config.policy = PolicyName(scheduler, CacheSystem::kSiloD);
      config.sim = SmallCluster(GB(40), MBps(300));
      const SimResult untyped = RunExperiment(trace, config);
      config.sim.topology = *typed;
      const SimResult uniform_typed = RunExperiment(trace, config);
      EXPECT_TRUE(PhysicallyIdentical(untyped, uniform_typed))
          << SchedulerKindName(scheduler) << " engine " << static_cast<int>(engine);
      const RunReport a = MakeRunReport("x", "e", untyped);
      const RunReport b = MakeRunReport("x", "e", uniform_typed);
      EXPECT_EQ(a.jct.avg_jct_min, b.jct.avg_jct_min);
      EXPECT_EQ(a.jct.p99_jct_min, b.jct.p99_jct_min);
    }
  }
}

// The per-GPU-type sub-summaries partition the finished jobs: group counts sum
// to the overall count and every group percentile is bounded by the overall
// max.
TEST(Heterogeneity, PerTypeBreakdownPartitionsFinishedJobs) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/48, /*seed=*/9);
  ExperimentConfig config;
  config.policy = "sjf+silod";
  config.sim = SmallCluster(GB(40), MBps(300));
  const Result<ClusterTopology> typed =
      ClusterTopology::Parse("gpu-type name=v100 count=5 speed=1;gpu-type name=k80 count=3 speed=0.5");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.sim.topology = *typed;
  for (const EngineKind engine : {EngineKind::kFlow, EngineKind::kFine}) {
    config.engine = engine;
    const SimResult result = RunExperiment(trace, config);
    const RunReport report = MakeRunReport("x", "e", result);
    ASSERT_FALSE(report.gpu_types.empty());
    int grouped = 0;
    double worst = 0;
    for (const TenantSummary& g : report.gpu_types) {
      EXPECT_GT(g.jct.finished, 0) << g.name;
      grouped += g.jct.finished;
      worst = std::max(worst, g.jct.p99_jct_min);
    }
    EXPECT_EQ(grouped, report.jct.finished);
    EXPECT_LE(report.jct.p99_jct_min, worst + 1e-9);
  }
}

// A long job that only runs well on the slow GPU type: SJF ranks it by its
// (long) speed-adjusted duration and keeps admitting the stream of short jobs
// ahead of it, so its completion — the trace's p99 — blows up.  Gavel's
// fairness objective admits in arrival order, hands it the slow GPU at t=0,
// and the tail stays near the job's ideal duration.
TEST(Heterogeneity, SlowBoundJobTailRegressesUnderSjfNotFairness) {
  const ModelZoo zoo;
  Trace trace;
  JobId next = 0;
  auto add_job = [&](const char* name, Bytes bytes, Seconds submit) -> JobSpec& {
    const DatasetId d =
        trace.catalog.Add(name + std::to_string(next), std::max(bytes, GB(1)), MB(16));
    JobSpec job = MakeJob(next++, zoo, "ResNet-50", 1, d, 1.0, submit);
    job.total_bytes = bytes;
    trace.jobs.push_back(job);
    return trace.jobs.back();
  };
  // Two warm-up jobs saturate both pools; the slow pool frees first.
  add_job("warm-fast", GB(17), 0);
  add_job("warm-slow", GB(2.85), 0);
  // The victim: crawls on the fast type, so its speed-adjusted duration (the
  // SJF score) is long, and it arrives before the whole short stream.
  JobSpec& slow_bound = add_job("victim", 2 * GB(10), 10);
  slow_bound.speed_factors = {{"fast", 0.05}};
  const std::size_t victim = trace.jobs.size() - 1;
  // A stream of shorts arriving faster than the two pools drain them: under
  // SJF there is a shorter waiting job at every replan until the stream ends.
  for (int i = 0; i < 40; ++i) {
    add_job("short", GB(2), 20 + 10.0 * i);
  }

  ExperimentConfig config;
  config.engine = EngineKind::kFlow;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(TB(1), GBps(10));  // Compute-bound throughout.
  config.sim.resources.total_gpus = 2;
  config.sim.reschedule_period = Minutes(1);
  const Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=fast count=1 speed=1;gpu-type name=slow count=1 speed=0.25");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.sim.topology = *typed;

  config.policy = "sjf+silod";
  const SimResult sjf_result = RunExperiment(trace, config);
  config.policy = "gavel+silod";
  const SimResult gavel_result = RunExperiment(trace, config);
  const RunReport sjf = MakeRunReport("sjf", "flow", sjf_result);
  const RunReport gavel = MakeRunReport("gavel", "flow", gavel_result);

  const int total = static_cast<int>(trace.jobs.size());
  ASSERT_EQ(sjf.jct.finished, total);
  ASSERT_EQ(gavel.jct.finished, total);
  // SJF starves the slow-bound job behind the short stream; Gavel's
  // arrival-order fairness hands it the slow GPU as soon as one frees, so its
  // JCT — and with it the trace's p99 — stays near the ideal slow-type
  // duration.
  EXPECT_GT(sjf_result.jobs[victim].Jct(), 1.5 * gavel_result.jobs[victim].Jct());
  EXPECT_GT(sjf.jct.p99_jct_min, 1.3 * gavel.jct.p99_jct_min);
}

}  // namespace
}  // namespace silod
