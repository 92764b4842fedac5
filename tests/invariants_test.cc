// Cross-cutting invariant sweeps: every (scheduler, cache system, engine)
// combination must satisfy the physical invariants of the system, regardless
// of policy quality.  These are the guard rails that catch modelling bugs
// (negative rates, over-committed egress, time travel) across the whole
// configuration space with one parameterized suite.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/common/units.h"
#include "src/core/system.h"

namespace silod {
namespace {

using Combo = std::tuple<SchedulerKind, CacheSystem, EngineKind>;

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  const auto& [scheduler, cache, engine] = info.param;
  std::string name = std::string(SchedulerKindName(scheduler)) + "_" + CacheSystemName(cache) +
                     (engine == EngineKind::kFine ? "_fine" : "_flow");
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

class InvariantSweep : public ::testing::TestWithParam<Combo> {
 protected:
  static Trace MakeSweepTrace() {
    TraceOptions options;
    options.num_jobs = 25;
    options.mean_interarrival = Minutes(3);
    options.median_duration = Minutes(25);
    options.max_duration = Hours(4);
    options.seed = 77;
    // Small blocks keep the fine engine fast on this trace.
    options.block_size = MB(256);
    return TraceGenerator(options).Generate();
  }

  static SimConfig SweepCluster() {
    SimConfig config;
    config.resources.total_gpus = 16;
    config.resources.total_cache = TB(2);
    config.resources.remote_io = MBps(300);
    config.resources.num_servers = 4;
    config.reschedule_period = Minutes(5);
    return config;
  }
};

TEST_P(InvariantSweep, PhysicalInvariantsHold) {
  const auto& [scheduler, cache, engine] = GetParam();
  const Trace trace = MakeSweepTrace();
  const SimConfig sim = SweepCluster();

  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.sim = sim;
  config.engine = engine;
  const SimResult result = RunExperiment(trace, config);

  // Every job completes exactly once, causally.
  ASSERT_EQ(result.jobs.size(), trace.jobs.size());
  for (const JobResult& j : result.jobs) {
    const JobSpec& spec = trace.jobs[static_cast<std::size_t>(j.id)];
    EXPECT_GE(j.first_start_time, spec.submit_time - 1e-6) << "job " << j.id;
    EXPECT_GE(j.finish_time, j.first_start_time) << "job " << j.id;
    // No job can beat its compute-bound duration (one block of rounding slack
    // for the fine engine's work quantization).
    const Seconds slack =
        static_cast<double>(trace.catalog.Get(spec.dataset).block_size) / spec.ideal_io + 1.0;
    EXPECT_GE(j.finish_time - j.first_start_time, spec.IdealDuration() - slack)
        << "job " << j.id << " finished faster than f* allows";
  }
  EXPECT_GT(result.makespan, 0);
  EXPECT_GE(result.AvgJctSeconds(), 0);

  // Conservation: egress is never over-used; throughput never exceeds the
  // aggregate ideal; ratios stay in range.
  for (const auto& [t, io] : result.remote_io_usage.points()) {
    EXPECT_LE(io, sim.resources.remote_io * 1.001) << "egress over-commit at t=" << t;
    EXPECT_GE(io, -1.0);
  }
  for (const auto& [t, ratio] : result.effective_cache_ratio.points()) {
    EXPECT_GE(ratio, -1e-9) << "t=" << t;
    EXPECT_LE(ratio, 1.0 + 1e-9) << "t=" << t;
  }
  for (const auto& [t, total] : result.total_throughput.points()) {
    EXPECT_LE(total, result.ideal_throughput.ValueAt(t) * 1.001 + 1.0)
        << "throughput above aggregate f* at t=" << t;
  }
}

TEST_P(InvariantSweep, DeterministicAcrossRuns) {
  const auto& [scheduler, cache, engine] = GetParam();
  const Trace trace = MakeSweepTrace();
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.sim = SweepCluster();
  config.engine = engine;
  const SimResult a = RunExperiment(trace, config);
  const SimResult b = RunExperiment(trace, config);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << "job " << i;
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, InvariantSweep,
    ::testing::Combine(::testing::Values(SchedulerKind::kFifo, SchedulerKind::kSjf,
                                         SchedulerKind::kGavel),
                       ::testing::Values(CacheSystem::kSiloD, CacheSystem::kAlluxio,
                                         CacheSystem::kAlluxioLfu, CacheSystem::kCoorDl,
                                         CacheSystem::kQuiver),
                       ::testing::Values(EngineKind::kFlow, EngineKind::kFine)),
    ComboName);

// Hoard prefetching must not break conservation: warmed bytes come only from
// leftover egress and unallocated cache, and every job still completes.
TEST(PrefetchInvariants, ConservationWithPrefetchEnabled) {
  TraceOptions options;
  options.num_jobs = 20;
  options.mean_interarrival = Minutes(2);
  options.median_duration = Minutes(25);
  options.max_duration = Hours(3);
  options.seed = 81;
  const Trace trace = TraceGenerator(options).Generate();
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim.resources.total_gpus = 8;  // Queueing so prefetch has targets.
  config.sim.resources.total_cache = TB(8);
  config.sim.resources.remote_io = MBps(400);
  config.sim.prefetch_waiting = true;
  const SimResult result = RunExperiment(trace, config);
  ASSERT_EQ(result.jobs.size(), trace.jobs.size());
  for (const JobResult& j : result.jobs) {
    EXPECT_GE(j.finish_time, j.first_start_time);
  }
  for (const auto& [t, io] : result.remote_io_usage.points()) {
    EXPECT_LE(io, MBps(400) * 1.001) << "prefetch over-used egress at t=" << t;
  }
  // Prefetching may only help.
  config.sim.prefetch_waiting = false;
  const SimResult off = RunExperiment(trace, config);
  EXPECT_LE(result.AvgJctSeconds(), off.AvgJctSeconds() * 1.02);
}

// The Gavel objective family must uphold the same invariants.
class ObjectiveInvariantSweep : public ::testing::TestWithParam<GavelObjective> {};

TEST_P(ObjectiveInvariantSweep, PhysicalInvariantsHold) {
  TraceOptions options;
  options.num_jobs = 20;
  options.median_duration = Minutes(25);
  options.max_duration = Hours(4);
  options.seed = 78;
  const Trace trace = TraceGenerator(options).Generate();
  ExperimentConfig config;
  config.policy = "gavel+silod";
  config.scheduler_options.gavel_objective = GetParam();
  config.sim.resources.total_gpus = 16;
  config.sim.resources.total_cache = TB(2);
  config.sim.resources.remote_io = MBps(300);
  const SimResult result = RunExperiment(trace, config);
  for (const JobResult& j : result.jobs) {
    EXPECT_GE(j.finish_time, j.first_start_time);
  }
  for (const auto& [t, io] : result.remote_io_usage.points()) {
    EXPECT_LE(io, MBps(300) * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(Objectives, ObjectiveInvariantSweep,
                         ::testing::Values(GavelObjective::kMaxMinFairness,
                                           GavelObjective::kFinishTimeFairness,
                                           GavelObjective::kMinTotalJct,
                                           GavelObjective::kMaxThroughput),
                         [](const auto& info) {
                           std::string n = GavelObjectiveName(info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace silod
