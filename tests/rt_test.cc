// Tests for the real-time mini-cluster (src/rt): real threads, wall-clock
// sleeps, token-bucket throttling.  Assertions are timing-tolerant (scheduler
// jitter, thread wakeups) but pin the structural facts: exactly-once
// accounting, cold first epochs, uniform-caching hit ratios, egress
// enforcement, and the SiloD-vs-baseline ordering.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/fault/minidump.h"
#include "src/rt/rt_cluster.h"
#include "src/rt/worker_main.h"

// fork() from a threaded parent plus worker re-exec is unsupported under
// TSan; process-mode tests skip there (thread mode still runs).
#if defined(__SANITIZE_THREAD__)
#define SILOD_RT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SILOD_RT_TSAN 1
#endif
#endif
#ifndef SILOD_RT_TSAN
#define SILOD_RT_TSAN 0
#endif
#if SILOD_RT_TSAN
#define SILOD_SKIP_UNDER_TSAN() GTEST_SKIP() << "process-mode workers are unsupported under TSan"
#else
#define SILOD_SKIP_UNDER_TSAN() (void)0
#endif

namespace silod {
namespace {

Trace TinyTrace(int num_jobs, Bytes dataset_size, double epochs, const char* model = "ResNet-50") {
  const ModelZoo zoo;
  Trace trace;
  for (int i = 0; i < num_jobs; ++i) {
    const DatasetId d =
        trace.catalog.Add("d" + std::to_string(i), dataset_size, KB(250));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, model, 1, d, 1.0, 0);
    job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(dataset_size));
    trace.jobs.push_back(job);
  }
  return trace;
}

ClusterResources TinyCluster(Bytes cache, BytesPerSec egress, int gpus = 8) {
  ClusterResources resources;
  resources.total_gpus = gpus;
  resources.total_cache = cache;
  resources.remote_io = egress;
  resources.num_servers = 1;
  return resources;
}

TEST(RtCluster, SingleJobAccounting) {
  const Trace trace = TinyTrace(1, MB(8), 3.0);  // 32 blocks x 3 epochs.
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(200)));
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.jobs.size(), 1u);
  const RtJobResult& j = result.jobs[0];
  EXPECT_EQ(j.cache_hits + j.cache_misses, 96);
  // Full cache: epoch 1 all misses, epochs 2-3 all hits.
  EXPECT_EQ(j.cache_misses, 32);
  EXPECT_EQ(j.cache_hits, 64);
  EXPECT_GT(j.Runtime(), 0);
}

TEST(RtCluster, RuntimeTracksIdealWhenUnconstrained) {
  const Trace trace = TinyTrace(1, MB(8), 2.0);
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(500)));
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  const double ideal = trace.jobs[0].IdealDuration();  // 16 MB / 114 MB/s ~ 0.14 s.
  EXPECT_GE(result.jobs[0].Runtime(), 0.8 * ideal);
  EXPECT_LE(result.jobs[0].Runtime(), 3.0 * ideal + 0.5);  // Generous for CI jitter.
}

TEST(RtCluster, EgressLimitSlowsColdEpoch) {
  // No cache, 10 MB/s egress: 16 MB must take >= ~1.4 s (ideal would be 0.14).
  const Trace trace = TinyTrace(1, MB(8), 2.0);
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(/*cache=*/0, MBps(10)));
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  // The token bucket's 8 MB burst forgives half the first epoch; the rest
  // pays full price: >= (16 MB - 8 MB) / 10 MB/s.
  EXPECT_GE(result.jobs[0].Runtime(), 0.7);
}

TEST(RtCluster, PartialCacheHitsMatchUniformRatio) {
  const Trace trace = TinyTrace(1, MB(8), 4.0);
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(4), MBps(200)));
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  const RtJobResult& j = result.jobs[0];
  // Steady epochs hit at c/d = 50%: 3 warm epochs x 32 blocks x 0.5 = 48.
  EXPECT_NEAR(static_cast<double>(j.cache_hits), 48.0, 4.0);
}

TEST(RtCluster, TwoJobsShareEgress) {
  const Trace trace = TinyTrace(2, MB(8), 1.0);
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(/*cache=*/0, MBps(20)));
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  // 16 MB total at 20 MB/s shared (minus the 8 MB burst): both finish around
  // the same time and neither can beat the shared-egress bound.
  for (const RtJobResult& j : result.jobs) {
    EXPECT_GE(j.Runtime(), 0.3);
  }
}

TEST(RtCluster, SiloDNotWorseThanQuiverOnMicroShape) {
  // Two ResNet datasets, pool fits 1.5 of them: SiloD partially caches the
  // second, Quiver cannot.
  const ModelZoo zoo;
  Trace trace;
  for (int i = 0; i < 2; ++i) {
    const DatasetId d = trace.catalog.Add("img" + std::to_string(i), MB(16), KB(256));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, "ResNet-50", 1, d, 1.0, 0);
    job.total_bytes = 3 * MB(16);
    trace.jobs.push_back(job);
  }
  const ClusterResources resources = TinyCluster(MB(24), MBps(60), 2);

  RtCluster silod(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD), resources);
  const RtResult silod_result = silod.Run();
  RtCluster quiver(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kQuiver), resources);
  const RtResult quiver_result = quiver.Run();
  ASSERT_FALSE(silod_result.timed_out);
  ASSERT_FALSE(quiver_result.timed_out);

  std::int64_t silod_hits = 0;
  std::int64_t quiver_hits = 0;
  for (int i = 0; i < 2; ++i) {
    silod_hits += silod_result.jobs[static_cast<std::size_t>(i)].cache_hits;
    quiver_hits += quiver_result.jobs[static_cast<std::size_t>(i)].cache_hits;
  }
  EXPECT_GT(silod_hits, quiver_hits);  // Partial caching pays.
  EXPECT_LE(silod_result.makespan, quiver_result.makespan * 1.15);  // Timing tolerance.
}

TEST(RtCluster, TimeoutSurfacesInsteadOfHanging) {
  const Trace trace = TinyTrace(1, MB(8), 4.0);
  RtOptions options;
  options.max_wall_seconds = 0.05;  // Far too short to finish.
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(0, MBps(10)), options);
  const RtResult result = cluster.Run();
  EXPECT_TRUE(result.timed_out);
}

// Regression: an aborted job must not leak its zero-initialized finish time
// into the makespan or masquerade as a completed run.
TEST(RtCluster, TimeoutMarksJobsUnfinished) {
  const Trace trace = TinyTrace(1, MB(8), 4.0);
  RtOptions options;
  options.max_wall_seconds = 0.05;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(0, MBps(10)), options);
  const RtResult result = cluster.Run();
  ASSERT_TRUE(result.timed_out);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].completed);
  EXPECT_EQ(result.unfinished_jobs, 1);
  EXPECT_EQ(result.makespan, 0);  // No completed job contributes.
}

// Regression: with a deep pipeline of staged blocks, shutdown must not pay
// one profiled compute sleep per staged block — the trainer checks stopping_
// before each sleep, so teardown is bounded by a single block_compute.
TEST(RtCluster, ShutdownDoesNotDrainStagedPipeline) {
  const ModelZoo zoo;
  Trace trace;
  // 32 MB blocks at ResNet-50's f* ~ 114 MB/s: block_compute ~ 0.28 s.  The
  // loader stages far faster than that, so the pipeline fills to depth.
  const DatasetId d = trace.catalog.Add("big", MB(256), MB(32));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 4 * MB(256);  // ~9 s of compute; nowhere near finishing.
  trace.jobs.push_back(job);

  RtOptions options;
  options.pipeline_depth = 8;  // Pre-fix drain: 8 x 0.28 s ~ 2.2 s extra.
  options.max_wall_seconds = 0.3;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(256), GBps(10)), options);
  const auto start = std::chrono::steady_clock::now();
  const RtResult result = cluster.Run();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(result.timed_out);
  // Timeout (0.3 s) + at most one in-flight compute sleep (0.28 s) + joins.
  EXPECT_LT(elapsed, 1.5);
}

// --------------------------------------------------- Fault injection (§6) --

// A degrade window with transient errors: the loader's bounded backoff
// retries through them, the run completes, and the per-block accounting stays
// exact (every block is exactly one hit or one miss, retries notwithstanding).
TEST(RtClusterFaults, TransientRemoteErrorsAreRetriedToCompletion) {
  const Trace trace = TinyTrace(1, MB(8), 3.0);
  RtOptions options;
  Result<FaultPlan> plan = FaultPlan::Parse("degrade t=0 factor=1 err=0.5 for=120");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(200)), options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  const RtJobResult& j = result.jobs[0];
  EXPECT_EQ(j.cache_hits + j.cache_misses, 96);
  EXPECT_EQ(j.cache_misses, 32);
  EXPECT_GT(result.remote_retries, 0);  // 32 misses at 50% error: ~32 retries.
  EXPECT_EQ(result.degrade_windows, 1);
}

// A Data-Manager restart mid-run: the runtime rebuilds from the periodic
// durable snapshot and every job still completes with exact accounting.
TEST(RtClusterFaults, DataManagerRestartIsSurvivable) {
  const Trace trace = TinyTrace(2, MB(8), 6.0);
  RtOptions options;
  options.snapshot_period = 0.03;
  options.reschedule_period = 0.02;  // Poll faults faster than the run ends.
  Result<FaultPlan> plan =
      FaultPlan::Parse("dm-restart t=0.1; dm-restart t=0.2; server-crash t=0.15 server=0");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(16), MBps(100)), options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_GE(result.dm_restarts, 1);  // Late events may land after the last job.
  for (const RtJobResult& j : result.jobs) {
    EXPECT_TRUE(j.completed);
    EXPECT_EQ(j.cache_hits + j.cache_misses, 192) << "job " << j.id;
    EXPECT_EQ(j.blocks_consumed, j.blocks_done) << "job " << j.id;
  }
  // The sharded Data Manager makes the server crash actionable: it is acted
  // on (shard 0 drops its residents), not counted as ignored.
  EXPECT_EQ(result.server_crashes, 1);
  EXPECT_EQ(result.ignored_by_kind.count(FaultKind::kCacheServerCrash), 0u);
  EXPECT_EQ(result.ignored_faults, 0);
}

// A sharded server crash mid-run (4 shards, one crashes and recovers): the
// crashed shard drops its residents and rejoins empty, every job still
// completes with exact accounting, and no server event is ignored.
TEST(RtClusterFaults, ShardedServerCrashIsActionable) {
  const Trace trace = TinyTrace(2, MB(8), 6.0);
  RtOptions options;
  options.reschedule_period = 0.02;  // Poll faults faster than the run ends.
  Result<FaultPlan> plan = FaultPlan::Parse("server-crash t=0.05 server=2 down=0.2");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  ClusterResources resources = TinyCluster(MB(16), MBps(100));
  resources.num_servers = 4;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    resources, options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.server_crashes, 1);
  EXPECT_EQ(result.server_recoveries, 1);
  EXPECT_EQ(result.ignored_by_kind.count(FaultKind::kCacheServerCrash), 0u);
  EXPECT_EQ(result.ignored_by_kind.count(FaultKind::kCacheServerRecover), 0u);
  EXPECT_EQ(result.ignored_faults, 0);
  for (const RtJobResult& j : result.jobs) {
    EXPECT_TRUE(j.completed) << "job " << j.id;
    // Exact accounting survives the crash: every block is exactly one hit or
    // one miss, and nothing consumed was left uncounted.
    EXPECT_EQ(j.cache_hits + j.cache_misses, 192) << "job " << j.id;
    EXPECT_EQ(j.blocks_consumed, j.blocks_done) << "job " << j.id;
  }
}

// Regression: a job aborted mid-pipeline must never report more blocks
// consumed than blocks whose compute actually finished (the trainer used to
// count the dequeue, not the completed compute).
TEST(RtClusterFaults, AbortedJobsReportConsumedEqualToDone) {
  const Trace trace = TinyTrace(2, MB(8), 4.0);
  RtOptions options;
  options.max_wall_seconds = 0.08;  // Abort mid-run with blocks in flight.
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(0, MBps(20)), options);
  const RtResult result = cluster.Run();
  ASSERT_TRUE(result.timed_out);
  for (const RtJobResult& j : result.jobs) {
    EXPECT_EQ(j.blocks_consumed, j.blocks_done) << "job " << j.id;
  }
}

// ------------------------------ Worker crash/restart and RestartCost (§6) --

// Thread mode, checkpoint-everything: the crash freezes the pipeline and the
// restart resumes it verbatim — zero re-reads, zero discarded compute, and
// the completion invariant holds with refetched == 0.
TEST(RtClusterWorkers, CheckpointEverythingRefetchesNothing) {
  const Trace trace = TinyTrace(1, MB(8), 6.0);  // 32 blocks x 6 epochs.
  RtOptions options;
  options.reschedule_period = 0.02;
  Result<FaultPlan> plan = FaultPlan::Parse("worker-crash t=0.3 job=0 restart=0.2");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(100)), options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.worker_crashes, 1);
  EXPECT_EQ(result.worker_restarts, 1);
  EXPECT_EQ(result.blocks_refetched, 0);
  EXPECT_DOUBLE_EQ(result.compute_lost, 0);
  const RtJobResult& j = result.jobs[0];
  EXPECT_TRUE(j.completed);
  EXPECT_EQ(j.cache_hits + j.cache_misses, 192);
  EXPECT_EQ(j.blocks_refetched, 0);
}

// Thread mode, lossy policies: the rollback re-reads at most the distance to
// the last checkpoint plus the staged pipeline, and every re-read shows up in
// the completion invariant — hits + misses == blocks_total + refetched.
TEST(RtClusterWorkers, LossyRestartPoliciesBoundTheRefetch) {
  struct Case {
    const char* spec;
    std::int64_t checkpoint_gap;  // Max blocks between checkpoints - 1.
  };
  for (const Case& c : {Case{"checkpoint-interval:4", 3}, Case{"lose-partial-epoch", 31}}) {
    const Trace trace = TinyTrace(1, MB(8), 6.0);
    RtOptions options;
    options.reschedule_period = 0.02;
    Result<FaultPlan> plan = FaultPlan::Parse("worker-crash t=0.3 job=0 restart=0.2");
    ASSERT_TRUE(plan.ok());
    options.faults = *plan;
    options.restart_cost = *RestartCost::Parse(c.spec);
    RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                      TinyCluster(MB(8), MBps(100)), options);
    const RtResult result = cluster.Run();
    ASSERT_FALSE(result.timed_out) << c.spec;
    EXPECT_EQ(result.worker_crashes, 1) << c.spec;
    EXPECT_EQ(result.worker_restarts, 1) << c.spec;
    const RtJobResult& j = result.jobs[0];
    ASSERT_TRUE(j.completed) << c.spec;
    EXPECT_EQ(j.cache_hits + j.cache_misses, 192 + j.blocks_refetched) << c.spec;
    EXPECT_LE(j.blocks_refetched, c.checkpoint_gap + options.pipeline_depth) << c.spec;
  }
}

// Satellite: worker-kind fault events must be acted on, never ignored — a
// churn plan whose every event targets a live job reports zero worker-kind
// ignores (the retired ignored_by_kind entries for crash/restart).
TEST(RtClusterWorkers, WorkerEventsAreNeverIgnoredUnderChurn) {
  const Trace trace = TinyTrace(2, MB(8), 6.0);
  RtOptions options;
  options.reschedule_period = 0.02;
  Result<FaultPlan> plan = FaultPlan::Parse(
      "worker-crash t=0.1 job=0 restart=0.15; "
      "worker-crash t=0.1 job=1 restart=0.15; "
      "worker-crash t=0.5 job=0 restart=0.15");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(16), MBps(100)), options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.worker_crashes, 3);
  EXPECT_EQ(result.worker_restarts, 3);
  EXPECT_EQ(result.ignored_by_kind.count(FaultKind::kWorkerCrash), 0u);
  EXPECT_EQ(result.ignored_by_kind.count(FaultKind::kWorkerRestart), 0u);
  EXPECT_EQ(result.ignored_faults, 0);
  for (const RtJobResult& j : result.jobs) {
    EXPECT_TRUE(j.completed) << "job " << j.id;
    EXPECT_EQ(j.cache_hits + j.cache_misses, 192 + j.blocks_refetched) << "job " << j.id;
  }
}

// ------------------------------------- Multi-process workers (MODEL.md §10) --

// The in-process path stays available behind the flag, and without faults the
// two modes are bit-identical: same shuffle order, same DataManager, so the
// same per-job hit/miss split.
TEST(RtClusterProcesses, ThreadAndProcessModesAgreeWithoutFaults) {
  SILOD_SKIP_UNDER_TSAN();
  const auto run = [](bool processes) {
    const Trace trace = TinyTrace(2, MB(4), 3.0);  // 16 blocks x 3 epochs.
    RtOptions options;
    options.workers_processes = processes;
    RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                      TinyCluster(MB(16), MBps(200)), options);
    return cluster.Run();
  };
  const RtResult threads = run(false);
  const RtResult processes = run(true);
  ASSERT_FALSE(threads.timed_out);
  ASSERT_FALSE(processes.timed_out);
  ASSERT_EQ(threads.jobs.size(), processes.jobs.size());
  for (std::size_t i = 0; i < threads.jobs.size(); ++i) {
    const RtJobResult& t = threads.jobs[i];
    const RtJobResult& p = processes.jobs[i];
    EXPECT_TRUE(t.completed && p.completed) << "job " << t.id;
    EXPECT_EQ(t.cache_hits, p.cache_hits) << "job " << t.id;
    EXPECT_EQ(t.cache_misses, p.cache_misses) << "job " << t.id;
    EXPECT_EQ(t.blocks_done, p.blocks_done) << "job " << t.id;
    // Ample cache + disjoint datasets: the split is exact, not just equal.
    EXPECT_EQ(t.cache_misses, 16) << "job " << t.id;
    EXPECT_EQ(t.cache_hits, 32) << "job " << t.id;
  }
  EXPECT_EQ(processes.worker_respawns, 0);
}

// Process mode: an injected kWorkerCrash SIGKILLs a real pid, the restart
// pays its refetch through the shared DataManager, the accounting stays
// exact, and the crash serializes a minidump whose window replays
// bit-identically.
TEST(RtClusterProcesses, InjectedCrashRestartsWithReplayableMinidump) {
  SILOD_SKIP_UNDER_TSAN();
  const Trace trace = TinyTrace(1, MB(8), 6.0);
  RtOptions options;
  options.workers_processes = true;
  options.reschedule_period = 0.02;
  options.minidump_dir = ::testing::TempDir() + "rt-dumps";
  Result<FaultPlan> plan = FaultPlan::Parse("worker-crash t=0.3 job=0 restart=0.2");
  ASSERT_TRUE(plan.ok());
  options.faults = *plan;
  options.restart_cost = *RestartCost::Parse("checkpoint-interval:4");
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(100)), options);
  const RtResult result = cluster.Run();
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.worker_crashes, 1);
  EXPECT_EQ(result.worker_restarts, 1);
  const RtJobResult& j = result.jobs[0];
  ASSERT_TRUE(j.completed);
  EXPECT_EQ(j.cache_hits + j.cache_misses, 192 + j.blocks_refetched);
  // Checkpoint distance (3) + the staged pipeline + one in-flight fetch that
  // may land after the SIGKILL.
  EXPECT_LE(j.blocks_refetched, 3 + options.pipeline_depth + 1);

  ASSERT_FALSE(result.minidump_paths.empty());
  std::ifstream in(result.minidump_paths.front());
  ASSERT_TRUE(in.good()) << result.minidump_paths.front();
  std::ostringstream text;
  text << in.rdbuf();
  const auto dump = MinidumpFromText(text.str());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->reason, "injected worker crash, job 0");
  const auto replay = ReplayMinidump(*dump);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->ok) << replay->message;
}

// Satellite: sim-vs-runtime fault parity.  The same fault plan on the fine
// engine and the multi-process RtCluster must agree exactly on the per-kind
// fault counts, and on blocks_refetched within the documented tolerance of
// crashes x (checkpoint distance + pipeline depth + 1): the engines checkpoint
// at the same boundaries, but the runtime's crash lands at a wall-clock
// instant, so the two runs crash up to one checkpoint window apart.
TEST(RtClusterProcesses, FineEngineAndRtClusterAgreeOnFaultAccounting) {
  SILOD_SKIP_UNDER_TSAN();
  const Trace trace = TinyTrace(1, MB(8), 6.0);
  const char* kPlan = "worker-crash t=0.3 job=0 restart=0.5";
  const RestartCost kCost = *RestartCost::Parse("checkpoint-interval:4");

  ExperimentConfig fine_config;
  fine_config.policy = "fifo+silod";
  fine_config.engine = EngineKind::kFine;
  fine_config.sim.resources = TinyCluster(MB(8), MBps(100));
  fine_config.sim.faults = *FaultPlan::Parse(kPlan);
  fine_config.sim.restart_cost = kCost;
  const SimResult fine = RunExperiment(trace, fine_config);

  RtOptions options;
  options.workers_processes = true;
  options.reschedule_period = 0.02;
  options.faults = *FaultPlan::Parse(kPlan);
  options.restart_cost = kCost;
  RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                    TinyCluster(MB(8), MBps(100)), options);
  const RtResult rt = cluster.Run();
  ASSERT_FALSE(rt.timed_out);

  EXPECT_EQ(fine.faults.worker_crashes, rt.worker_crashes);
  EXPECT_EQ(fine.faults.worker_restarts, rt.worker_restarts);
  EXPECT_EQ(fine.faults.ignored_events, rt.ignored_faults);
  EXPECT_EQ(rt.worker_crashes, 1);
  const std::int64_t tolerance =
      rt.worker_crashes * (kCost.interval_blocks + options.pipeline_depth + 1);
  EXPECT_LE(std::abs(fine.faults.blocks_refetched - rt.blocks_refetched), tolerance)
      << "fine=" << fine.faults.blocks_refetched << " rt=" << rt.blocks_refetched;
}

}  // namespace
}  // namespace silod

// Re-exec'd copies of this binary become rt worker processes (process-mode
// tests); everything else is a normal gtest run.
int main(int argc, char** argv) {
  if (const int worker_rc = silod::MaybeRunWorkerMain(argc, argv); worker_rc >= 0) {
    return worker_rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
