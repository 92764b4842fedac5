// End-to-end integration tests: scaled-down versions of the paper's headline
// claims, run through the full public API.  Absolute numbers are ours; the
// assertions check the *shape* of every result the paper reports.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/estimator/ioperf.h"

namespace silod {
namespace {

// Scaled micro-benchmark (§7.1.1 at ~1/20 size so the fine engine runs in
// milliseconds): 2 ResNet-50 + 2 EfficientNetB1 (65 GB image datasets) and a
// 4-GPU BERT job on a 1 TB corpus; 100 GB cache, 10 MB/s egress.
Trace ScaledMicroTrace() {
  const ModelZoo zoo;
  Trace trace;
  auto add = [&](const char* model, int gpus, Bytes size, double epochs) {
    const DatasetId d = trace.catalog.Add(std::string(model) + std::to_string(trace.jobs.size()),
                                          size, MB(16));
    JobSpec job = MakeJob(static_cast<JobId>(trace.jobs.size()), zoo, model, gpus, d, 1.0, 0);
    job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(size));
    trace.jobs.push_back(job);
  };
  add("ResNet-50", 1, GB(65), 13);
  add("ResNet-50", 1, GB(65), 13);
  add("EfficientNetB1", 1, GB(65), 10);
  add("EfficientNetB1", 1, GB(65), 10);
  add("BERT", 4, TB(1.0), 0.07);
  return trace;
}

SimConfig ScaledMicroCluster() {
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = GB(100);
  config.resources.remote_io = MBps(10);
  config.resources.num_servers = 2;
  config.reschedule_period = Minutes(10);
  return config;
}

SimResult RunMicro(CacheSystem cache, EngineKind engine,
                   SchedulerKind scheduler = SchedulerKind::kFifo) {
  const Trace trace = ScaledMicroTrace();
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.sim = ScaledMicroCluster();
  config.engine = engine;
  return RunExperiment(trace, config);
}

// Table 6 / Fig. 10 shape: under FIFO, SiloD beats every baseline on both
// average JCT and makespan.
TEST(Integration, MicrobenchmarkSiloDWinsOnJctAndMakespan) {
  const SimResult silod = RunMicro(CacheSystem::kSiloD, EngineKind::kFine);
  for (const CacheSystem baseline :
       {CacheSystem::kAlluxio, CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
    const SimResult other = RunMicro(baseline, EngineKind::kFine);
    EXPECT_LT(silod.AvgJctSeconds(), other.AvgJctSeconds() * 1.001)
        << CacheSystemName(baseline);
    EXPECT_LT(silod.makespan, other.makespan * 1.001) << CacheSystemName(baseline);
  }
}

// Table 6's ordering among the baselines: Quiver close to SiloD, CoorDL and
// Alluxio clearly behind.
TEST(Integration, MicrobenchmarkBaselineOrdering) {
  const double silod = RunMicro(CacheSystem::kSiloD, EngineKind::kFine).AvgJctSeconds();
  const double quiver = RunMicro(CacheSystem::kQuiver, EngineKind::kFine).AvgJctSeconds();
  const double coordl = RunMicro(CacheSystem::kCoorDl, EngineKind::kFine).AvgJctSeconds();
  EXPECT_LT(silod, quiver);
  EXPECT_LT(quiver, coordl);
}

// The paper's own validation methodology: the flow simulator tracks the fine
// (mini-batch) engine within a few percent on this trace.
TEST(Integration, MicrobenchmarkSimulatorFidelity) {
  for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kCoorDl}) {
    const SimResult fine = RunMicro(cache, EngineKind::kFine);
    const SimResult flow = RunMicro(cache, EngineKind::kFlow);
    EXPECT_NEAR(flow.AvgJctSeconds(), fine.AvgJctSeconds(), 0.06 * fine.AvgJctSeconds())
        << CacheSystemName(cache);
    EXPECT_NEAR(flow.makespan, fine.makespan, 0.09 * fine.makespan) << CacheSystemName(cache);
  }
}

// §4's claim: the SiloDPerf estimator predicts measured steady-state
// throughput within ~3%.  Measure a single job's post-warmup epoch time in
// the fine engine and compare against Eq. 4.
TEST(Integration, EstimatorErrorWithinThreePercent) {
  const ModelZoo zoo;
  for (const double cache_frac : {0.25, 0.5, 0.75}) {
    Trace trace;
    const Bytes d = GB(10);
    const DatasetId ds = trace.catalog.Add("x", d, MB(16));
    JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, ds, 1.0, 0);
    job.total_bytes = 6 * d;
    trace.jobs.push_back(job);

    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.engine = EngineKind::kFine;
    config.sim.resources.total_gpus = 1;
    config.sim.resources.total_cache = static_cast<Bytes>(cache_frac * static_cast<double>(d));
    config.sim.resources.remote_io = MBps(20);
    const SimResult result = RunExperiment(trace, config);

    const BytesPerSec predicted = SiloDPerfThroughput(
        job.ideal_io, MBps(20), config.sim.resources.total_cache, d);
    // Steady state: total = cold epoch at 20 MB/s + 5 epochs at `predicted`.
    const double cold = static_cast<double>(d) / MBps(20);
    const double measured_steady = 5.0 * static_cast<double>(d) /
                                   (result.jobs[0].Jct() - cold);
    EXPECT_NEAR(measured_steady, predicted, 0.03 * predicted)
        << "cache fraction " << cache_frac;
  }
}

// Fig. 14a shape: SiloD's advantage over Alluxio shrinks as egress bandwidth
// grows, and disappears when remote IO stops being the bottleneck.
TEST(Integration, BandwidthSweepNarrowsTheGap) {
  std::map<double, double> gain;  // egress MB/s -> JCT(Alluxio)/JCT(SiloD).
  for (const double egress : {5.0, 20.0, 400.0}) {
    const Trace trace = ScaledMicroTrace();
    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.sim = ScaledMicroCluster();
    config.sim.resources.remote_io = MBps(egress);
    config.engine = EngineKind::kFlow;
    const double silod = RunExperiment(trace, config).AvgJctSeconds();
    config.policy = "fifo+alluxio";
    const double alluxio = RunExperiment(trace, config).AvgJctSeconds();
    gain[egress] = alluxio / silod;
  }
  EXPECT_GT(gain[5.0], gain[400.0]);
  EXPECT_GE(gain[20.0], gain[400.0] * 0.99);
  EXPECT_NEAR(gain[400.0], 1.0, 0.05);  // No bottleneck, no difference.
}

// Fig. 14b shape: faster GPUs raise IO demand and widen SiloD's win over the
// best baseline.
TEST(Integration, FasterGpusWidenTheGap) {
  std::map<double, double> gain;
  for (const double scale : {1.0, 4.0}) {
    const ModelZoo zoo;
    Trace trace;
    auto add = [&](const char* model, Bytes size, double epochs) {
      const DatasetId d =
          trace.catalog.Add(std::string(model) + std::to_string(trace.jobs.size()), size, MB(16));
      JobSpec job = MakeJob(static_cast<JobId>(trace.jobs.size()), zoo, model, 1, d, 1.0, 0,
                            scale);
      job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(size));
      trace.jobs.push_back(job);
    };
    add("ResNet-50", GB(65), 13);
    add("ResNet-50", GB(65), 13);
    add("EfficientNetB1", GB(65), 10);
    ExperimentConfig config;
    config.policy = "gavel+silod";
    config.sim = ScaledMicroCluster();
    // At 1x the 300 MB/s egress covers the aggregate demand (297 MB/s): no
    // bottleneck, so the cache system barely matters.  At 4x the demand
    // quadruples and remote IO binds — the regime where co-design pays.
    config.sim.resources.remote_io = MBps(300);
    config.engine = EngineKind::kFlow;
    const double silod = RunExperiment(trace, config).AvgJctSeconds();
    config.policy = "gavel+quiver";
    const double quiver = RunExperiment(trace, config).AvgJctSeconds();
    gain[scale] = quiver / silod;
  }
  EXPECT_NEAR(gain[1.0], 1.0, 0.05);  // No bottleneck: systems tie.
  EXPECT_GT(gain[4.0], gain[1.0] + 0.02);
}

// Fig. 13 shape: Gavel+SiloD achieves higher average fairness than Gavel on
// any independent cache system, and the §7.2 ablation (cache-only SiloD)
// degrades fairness.
TEST(Integration, FairnessOrderingUnderGavel) {
  const double silod =
      RunMicro(CacheSystem::kSiloD, EngineKind::kFlow, SchedulerKind::kGavel).AvgFairness();
  const double quiver =
      RunMicro(CacheSystem::kQuiver, EngineKind::kFlow, SchedulerKind::kGavel).AvgFairness();
  const double alluxio =
      RunMicro(CacheSystem::kAlluxio, EngineKind::kFlow, SchedulerKind::kGavel).AvgFairness();
  EXPECT_GT(silod, quiver);
  EXPECT_GT(silod, alluxio);

  const Trace trace = ScaledMicroTrace();
  ExperimentConfig ablation;
  ablation.policy = "gavel+silod";
  ablation.scheduler_options.manage_remote_io = false;
  ablation.sim = ScaledMicroCluster();
  ablation.engine = EngineKind::kFlow;
  const double cache_only = RunExperiment(trace, ablation).AvgFairness();
  EXPECT_LT(cache_only, silod);
}

// Fig. 15 shape: dataset sharing reduces average JCT.
TEST(Integration, DatasetSharingHelps) {
  std::map<double, double> jct;
  for (const double share : {0.0, 1.0}) {
    TraceOptions options;
    options.num_jobs = 30;
    options.median_duration = Minutes(30);
    options.mean_interarrival = Minutes(1);
    options.share_fraction = share;
    options.seed = 21;
    const Trace trace = TraceGenerator(options).Generate();
    ExperimentConfig config;
    config.policy = "sjf+silod";
    config.sim.resources.total_gpus = 16;
    config.sim.resources.total_cache = TB(1);
    config.sim.resources.remote_io = MBps(100);
    config.engine = EngineKind::kFlow;
    jct[share] = RunExperiment(trace, config).AvgJctSeconds();
  }
  EXPECT_LT(jct[1.0], jct[0.0]);
}

// §7.4 / Fig. 16 shape: under curriculum learning, LRU no longer thrashes —
// its JCT is within a few percent of uniform caching.
TEST(Integration, CurriculumMakesLruMatchUniform) {
  auto run = [&](CacheSystem cache) {
    const ModelZoo zoo;
    Trace trace;
    const Bytes d = GB(10);
    const DatasetId ds = trace.catalog.Add("sorted-by-difficulty", d, MB(16));
    JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, ds, 1.0, 0);
    job.total_bytes = 5 * d;
    job.curriculum = true;
    job.curriculum_params.starting_percent = 0.04;
    job.curriculum_params.alpha = 1.9;
    job.curriculum_params.step = 100;  // Iterations are blocks here.
    job.regular = false;
    trace.jobs.push_back(job);
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cache);
    config.engine = EngineKind::kFine;
    config.sim.resources.total_gpus = 1;
    config.sim.resources.total_cache = GB(5);
    config.sim.resources.remote_io = MBps(20);
    return RunExperiment(trace, config).AvgJctSeconds();
  };
  const double uniform = run(CacheSystem::kSiloD);
  const double lru = run(CacheSystem::kAlluxio);
  EXPECT_NEAR(lru, uniform, 0.10 * uniform);
}

}  // namespace
}  // namespace silod
