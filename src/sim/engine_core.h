// EngineCore: the engine-independent half of a simulation run, owned by both
// engines.  It keeps the fleet (resolved topology, server and zone liveness,
// the live resources that crashes, recoveries and degrade windows rescale),
// the §6 fault rules (injector cursor, FaultStats, which events are ignored,
// degrade windows), arrival order, the scheduler solve with its plan check,
// and the run close-out.  What a counted fault does to cached data and to a
// job's progress is the engine's FaultPhysics.  Faults are rare; the per-step
// accessors are inline and make no virtual call.
#ifndef SILOD_SRC_SIM_ENGINE_CORE_H_
#define SILOD_SRC_SIM_ENGINE_CORE_H_

#include <memory>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/sched/policy.h"
#include "src/sim/cluster.h"
#include "src/sim/metrics.h"
#include "src/workload/trace_gen.h"

namespace silod {

// Virtual-time tolerance: events within it of the clock are due.
inline constexpr Seconds kTimeEps = 1e-9;
// Hard stop for runaway simulations (fails loudly rather than hanging).
inline constexpr Seconds kMaxSimTime = Days(365);

// A cache-server crash that passed the shared checks.  The liveness counters
// and the live resources already exclude the server.
struct ServerCrash {
  int prev_alive = 0;       // Alive servers before the crash (>= 1).
  int zone = -1;            // The server's topology zone; -1 when zone-oblivious.
  int prev_zone_alive = 0;  // Alive members of `zone` before the crash.
};

// What an engine's model does with a fault EngineCore has checked and counted.
class FaultPhysics {
 public:
  struct Worker {  // The job flags the worker rules read.
    bool arrived = false, running = false, finished = false, crashed = false;
  };
  virtual Worker WorkerOf(JobId id) const = 0;

  virtual void OnServerCrash(const ServerCrash& crash) = 0;
  virtual void OnServerRecover() = 0;  // The server rejoins empty.
  virtual void OnWorkerCrash(JobId id, Seconds now) = 0;
  virtual void OnWorkerRestart(JobId id) = 0;  // Clears the crash; re-admission follows.
  virtual void OnDataManagerRestart() = 0;

 protected:
  ~FaultPhysics() = default;
};

class EngineCore {
 public:
  // Checks the trace (non-empty, dense ids, known datasets, every gang fits
  // the cluster and a gpu-type pool) and resolves config->topology in place.
  // `config` is the owning engine's: its resources are the live ones.
  EngineCore(const Trace* trace, std::shared_ptr<Scheduler> scheduler, SimConfig* config);
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  // Arrivals in submit order: the next submit time (kInfiniteTime once all
  // arrived), and popping the next job submitted by `t`.
  Seconds NextArrivalTime() const {
    return next_arrival_ < arrivals_.size()
               ? trace_->jobs[static_cast<std::size_t>(arrivals_[next_arrival_])].submit_time
               : kInfiniteTime;
  }
  bool PopArrival(Seconds t, JobId* id) {
    if (NextArrivalTime() > t + kTimeEps) {
      return false;
    }
    *id = arrivals_[next_arrival_++];
    return true;
  }

  // Plans the engine's `jobs` at `now` against the live resources and the
  // declared topology, and checks the plan.  False, with an empty plan, when
  // there are no jobs.
  bool Solve(Seconds now, std::vector<JobView> jobs, AllocationPlan* plan) const;

  Seconds NextFaultTime() const { return injector_.NextTime(); }
  // Applies every fault due by `t`; true when any was due.  Every fault is a
  // scheduling event: the caller re-plans.
  bool ApplyDueFaults(Seconds t, FaultPhysics& physics) {
    const bool due = injector_.NextTime() <= t + kTimeEps;
    if (due) {
      ApplyFaults(t, physics);
    }
    return due;
  }

  double ZoneAliveFraction(int zone) const {
    return static_cast<double>(zone_alive_[static_cast<std::size_t>(zone)]) /
           config_->topology.zones()[static_cast<std::size_t>(zone)].size();
  }
  FaultStats& stats() { return stats_; }

  // Closes an open degrade window at `end`, counts the events the run never
  // reached as ignored, finalizes `metrics` and prices each degrade window.
  SimResult Finish(Seconds end, MetricsCollector* metrics);

 private:
  void ApplyFaults(Seconds t, FaultPhysics& physics);
  void Apply(const FaultEvent& event, Seconds now, FaultPhysics& physics);
  void SetServerAlive(int server, bool alive);
  void CloseDegradeWindow(Seconds end);

  const Trace* trace_;
  std::shared_ptr<Scheduler> scheduler_;
  SimConfig* config_;
  std::vector<JobId> arrivals_;
  std::size_t next_arrival_ = 0;

  FaultInjector injector_;            // Cursor over SimConfig::faults.
  ClusterResources base_resources_;   // Nominal (no-fault) resources.
  std::vector<bool> server_alive_;
  int alive_servers_ = 0;
  std::vector<int> zone_alive_;       // Alive members per topology zone.
  Seconds degrade_start_ = -1;        // Open degrade window, -1 if none.
  FaultStats stats_;
  std::vector<FaultEvent> due_;       // Scratch.
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_ENGINE_CORE_H_
