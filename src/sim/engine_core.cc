#include "src/sim/engine_core.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {

EngineCore::EngineCore(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
                       SimConfig* config)
    : trace_(trace), scheduler_(std::move(scheduler)), config_(config),
      injector_(config->faults), base_resources_(config->resources),
      server_alive_(static_cast<std::size_t>(config->resources.num_servers), true),
      alive_servers_(config->resources.num_servers) {
  SILOD_CHECK(trace_ != nullptr) << "trace required";
  SILOD_CHECK(scheduler_ != nullptr) << "scheduler required";
  SILOD_CHECK(!trace_->jobs.empty()) << "empty trace";

  Result<ClusterTopology> topology =
      config_->topology.Resolve(config_->resources.num_servers, config_->resources.total_gpus);
  SILOD_CHECK(topology.ok()) << topology.status().ToString();
  config_->topology = std::move(topology).value();
  for (const TopologyZone& zone : config_->topology.zones()) {
    zone_alive_.push_back(zone.size());
  }

  for (std::size_t i = 0; i < trace_->jobs.size(); ++i) {
    const JobSpec& spec = trace_->jobs[i];
    SILOD_CHECK(spec.id >= 0 && static_cast<std::size_t>(spec.id) < trace_->jobs.size())
        << "job ids must be dense";
    SILOD_CHECK(spec.dataset >= 0 && static_cast<std::size_t>(spec.dataset) < trace_->catalog.size())
        << "job " << i << " references unknown dataset " << spec.dataset;
    SILOD_CHECK(spec.num_gpus <= config_->resources.total_gpus)
        << "job " << i << " demands more GPUs than the cluster has";
    const Status fits = config_->topology.CheckGangFits(spec.num_gpus);
    SILOD_CHECK(fits.ok()) << "job " << i << ": " << fits.message();
    arrivals_.push_back(spec.id);
  }
  std::sort(arrivals_.begin(), arrivals_.end(), [&](JobId a, JobId b) {
    return trace_->jobs[static_cast<std::size_t>(a)].submit_time <
           trace_->jobs[static_cast<std::size_t>(b)].submit_time;
  });
}

bool EngineCore::Solve(Seconds now, std::vector<JobView> jobs, AllocationPlan* plan) const {
  if (jobs.empty()) {
    *plan = AllocationPlan{};
    return false;
  }
  Snapshot snap;
  snap.now = now;
  snap.jobs = std::move(jobs);
  snap.resources = config_->resources;
  snap.catalog = &trace_->catalog;
  snap.topology = config_->topology.IfDeclared();
  AnnotateSnapshotSpeeds(&snap);
  *plan = scheduler_->Schedule(snap);
  const Status valid = plan->Validate(config_->resources);
  SILOD_CHECK(valid.ok()) << "invalid plan from " << scheduler_->name() << ": "
                          << valid.ToString();
  return true;
}

void EngineCore::ApplyFaults(Seconds t, FaultPhysics& physics) {
  due_.clear();
  injector_.PopDue(t + kTimeEps, &due_);
  for (const FaultEvent& event : due_) {
    Apply(event, t, physics);
  }
}

void EngineCore::SetServerAlive(int server, bool alive) {
  server_alive_[static_cast<std::size_t>(server)] = alive;
  alive_servers_ += alive ? 1 : -1;
  if (const int zone = config_->topology.empty() ? -1 : config_->topology.ZoneOf(server);
      zone >= 0) {
    zone_alive_[static_cast<std::size_t>(zone)] += alive ? 1 : -1;
  }
  // The pool shrinks with the servers holding it; a recovered server rejoins
  // empty, so the capacity comes back before the data does.
  config_->resources.total_cache = base_resources_.total_cache *
                                   static_cast<Bytes>(alive_servers_) /
                                   static_cast<Bytes>(base_resources_.num_servers);
  config_->resources.num_servers = std::max(1, alive_servers_);
}

void EngineCore::Apply(const FaultEvent& event, Seconds now, FaultPhysics& physics) {
  const bool server_in_range = event.target >= 0 && event.target < base_resources_.num_servers;
  const bool job_in_range =
      event.target >= 0 && static_cast<std::size_t>(event.target) < trace_->jobs.size();
  switch (event.kind) {
    case FaultKind::kCacheServerCrash: {
      if (!server_in_range || !server_alive_[static_cast<std::size_t>(event.target)]) {
        ++stats_.ignored_events;
        return;
      }
      ServerCrash crash;
      crash.prev_alive = alive_servers_;
      crash.zone = config_->topology.empty() ? -1 : config_->topology.ZoneOf(event.target);
      if (crash.zone >= 0) {
        crash.prev_zone_alive = zone_alive_[static_cast<std::size_t>(crash.zone)];
      }
      SetServerAlive(event.target, false);
      ++stats_.server_crashes;
      physics.OnServerCrash(crash);
      return;
    }
    case FaultKind::kCacheServerRecover:
      if (!server_in_range || server_alive_[static_cast<std::size_t>(event.target)]) {
        ++stats_.ignored_events;
        return;
      }
      SetServerAlive(event.target, true);
      ++stats_.server_recoveries;
      physics.OnServerRecover();
      return;
    case FaultKind::kRemoteDegrade:
      // Reads retry, so transient errors are egress attempts that moved
      // nothing: fold the error probability into the rate with the cut.
      config_->resources.remote_io =
          base_resources_.remote_io * event.severity * (1.0 - event.error_rate);
      if (degrade_start_ >= 0) {
        CloseDegradeWindow(now);
      }
      if (event.severity < 1.0 || event.error_rate > 0) {
        degrade_start_ = now;
        ++stats_.degrade_windows;
      }
      return;
    case FaultKind::kWorkerCrash: {
      const FaultPhysics::Worker w = job_in_range ? physics.WorkerOf(event.target)
                                                  : FaultPhysics::Worker{};
      if (!w.arrived || w.finished || w.crashed || !w.running) {
        ++stats_.ignored_events;  // Queued jobs have no worker to crash.
        return;
      }
      ++stats_.worker_crashes;
      physics.OnWorkerCrash(event.target, now);
      return;
    }
    case FaultKind::kWorkerRestart:
      if (!job_in_range || !physics.WorkerOf(event.target).crashed) {
        ++stats_.ignored_events;
        return;
      }
      ++stats_.worker_restarts;
      physics.OnWorkerRestart(event.target);
      return;
    case FaultKind::kDataManagerRestart:
      ++stats_.dm_restarts;
      physics.OnDataManagerRestart();
      return;
  }
  // A FaultEvent with an out-of-enum kind is an invariant violation, not an
  // "ignored" fault; log it rather than inflating the counter.
  SILOD_LOG(Error) << "fault event with invalid kind " << static_cast<int>(event.kind)
                   << " dropped";
}

void EngineCore::CloseDegradeWindow(Seconds end) {
  FaultStats::Window window;
  window.label = "degrade";
  window.start = degrade_start_;
  window.end = end;
  stats_.windows.push_back(std::move(window));
  degrade_start_ = -1;
}

SimResult EngineCore::Finish(Seconds end, MetricsCollector* metrics) {
  if (degrade_start_ >= 0) {
    CloseDegradeWindow(end);
  }
  due_.clear();
  injector_.PopDue(kInfiniteTime, &due_);
  stats_.ignored_events += static_cast<int>(due_.size());
  SimResult result = metrics->Finalize();
  for (FaultStats::Window& window : stats_.windows) {
    window.avg_throughput = result.total_throughput.TimeAverage(window.start, window.end);
  }
  result.faults = stats_;
  return result;
}

}  // namespace silod
