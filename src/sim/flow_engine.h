// FlowEngine: piecewise-constant-rate cluster simulation.
//
// Between events (arrival, completion, epoch boundary, reschedule tick) every
// running job progresses at a constant rate derived from the closed-form
// models: SiloDPerf for dataset-quota caches, the per-job static model for
// CoorDL, and the shared-LRU fluid model for Alluxio.  Cache fill and delayed
// effectiveness (§6) are integrated analytically: a dataset's cache fills at
// the rate of its jobs' miss traffic, and a job's *effective* cache is
// snapshotted at each of its epoch boundaries.
//
// This is the engine for the 400-GPU / 4-week experiments (§7.2); its
// fidelity against the mini-batch FineEngine is itself an experiment
// (Table 6's simulation columns).
#ifndef SILOD_SRC_SIM_FLOW_ENGINE_H_
#define SILOD_SRC_SIM_FLOW_ENGINE_H_

#include <memory>
#include <vector>

#include "src/sched/policy.h"
#include "src/sim/cluster.h"
#include "src/sim/engine_core.h"
#include "src/sim/metrics.h"
#include "src/workload/trace_gen.h"

namespace silod {

class FlowEngine : private FaultPhysics {
 public:
  FlowEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler, SimConfig config);

  SimResult Run();

 private:
  struct JobState {
    const JobSpec* spec = nullptr;
    double remaining = 0;        // Bytes left to train.
    double epoch_pos = 0;        // Bytes into the current epoch.
    double effective = 0;        // Effective cache bytes for the current epoch.
    double private_cached = 0;   // CoorDL private-cache fill.
    Bytes private_quota = 0;
    bool arrived = false;
    bool running = false;
    bool started = false;  // Ever held GPUs (distinguishes start from resume).
    bool finished = false;
    // Worker crashed and not yet restarted.  `started` stays true, so the
    // scheduler's re-admission goes through the resume path and pays the
    // checkpoint-restore penalty.
    bool crashed = false;
    bool warm = false;           // Completed at least one epoch.
    BytesPerSec rate = 0;        // Current end-to-end throughput.
    BytesPerSec io_rate = 0;     // Current egress consumption.
    // GPU-type placement from the plan (-1 / 1.0 on uniform fleets): the job
    // computes at spec->ideal_io * speed while holding this type's GPUs.
    int gpu_type = -1;
    double speed = 1.0;
    // The plan's remote-IO throttle when it manages remote IO, else
    // unlimited; refreshed by every Reschedule.
    BytesPerSec throttle = kUnlimitedRate;
  };
  struct DatasetState {
    Bytes quota = 0;
    double cached = 0;      // Filled bytes (may exceed quota only transiently).
    double fill_rate = 0;
    double fill_limit = 0;  // Cap `cached` may fill to during this step.
    // Zone-aware placement: per-zone resident fluid and the plan's per-zone
    // share limits (indexed like the topology's zones).  Empty for
    // zone-oblivious datasets; when present, zone_cached sums to `cached`.
    std::vector<double> zone_cached;
    std::vector<double> zone_limit;
  };

  std::vector<JobView> JobViews() const;  // Arrived, unfinished, not crashed.
  void Reschedule(Seconds now);
  // Shrinks dataset d's fluid to `limit`, scaling its jobs' effectiveness in
  // proportion (uniform random eviction removes effective and ineffective
  // items alike).  Touches only the dataset's own state and its own jobs.
  void ShrinkDataset(std::size_t d, double limit);
  // The whole per-dataset quota step for one dataset: zone-aware solve
  // (ApplyZoneQuota) when the plan spreads it, plain shrink otherwise.
  // Writes only datasets_[d] and the jobs in dataset_jobs_[d].
  void ApplyDatasetQuota(std::size_t d);
  void ComputeRates(Seconds now);
  void RecordMetrics(Seconds now);
  // FaultPhysics: what a fault does to cached fluid and training progress.
  Worker WorkerOf(JobId id) const override;
  void OnServerCrash(const ServerCrash& crash) override;
  void OnServerRecover() override {}  // Rejoins empty; the fill dynamics re-warm it.
  void OnWorkerCrash(JobId id, Seconds now) override;
  void OnWorkerRestart(JobId id) override;
  // The fluid model's Data Manager state (allocations + disk contents)
  // restores exactly, so a restart is performance-neutral here; the fine
  // engine and the real-thread runtime exercise the snapshot/restore path.
  void OnDataManagerRestart() override {}
  // Applies a zone-aware quota: adopts the plan's per-zone shares as limits,
  // migrates over-cap fluid into zones with headroom (shares that moved — or
  // a zone that died — rebalance over the intra-cluster fabric), and only
  // evicts fluid with nowhere left to go, scaling job effectiveness like a
  // uniform shrink.
  void ApplyZoneQuota(std::size_t d, Bytes quota, const std::vector<Bytes>& shares);
  // Distributes `delta` fill bytes across zones proportional to their
  // headroom under ZoneFillCaps.
  void FillZones(DatasetState& ds, double delta);
  // Per-zone holding caps: the alive-scaled share, plus each alive zone's
  // proportional slice of dead zones' capacity (a dead server's blocks
  // rehash to the survivors, so an outage never strands quota).  Equals
  // zone_limit exactly when every member is alive.
  std::vector<double> ZoneFillCaps(const DatasetState& ds) const;

  const Trace* trace_;
  SimConfig config_;
  EngineCore core_;  // Fault and fleet bookkeeping, arrivals, solves.
  double prefetch_rate_ = 0;  // Leftover-egress prefetch traffic (Hoard mode).

  std::vector<JobState> jobs_;          // Indexed by JobId.
  std::vector<DatasetState> datasets_;  // Indexed by DatasetId.
  // Jobs per dataset, ascending job id (fixed at construction: a job's
  // dataset never changes).  Per-dataset effectiveness updates walk this
  // partition instead of every job — and because each job appears under
  // exactly one dataset, per-dataset work writes disjoint job sets.
  std::vector<std::vector<JobId>> dataset_jobs_;
  AllocationPlan plan_;
  MetricsCollector metrics_;
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_FLOW_ENGINE_H_
