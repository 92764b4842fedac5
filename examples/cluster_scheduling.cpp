// Cluster scheduling walkthrough: generate a production-like trace, run it
// under every (scheduler, cache system) combination on a 96-GPU cluster, and
// compare the paper's metrics — the workflow a cluster operator would use to
// evaluate SiloD for their deployment.
#include <cstdio>

#include "src/common/table.h"
#include "src/core/system.h"

using namespace silod;

int main() {
  // 1. Describe the cluster (Table 5's 96-GPU scale).
  SimConfig cluster;
  cluster.resources.total_gpus = 96;
  cluster.resources.total_cache = TB(7.2);
  cluster.resources.remote_io = Gbps(8);
  cluster.resources.num_servers = 24;
  cluster.reschedule_period = Minutes(10);

  // 2. Generate a Philly-like workload: heavy-tailed durations, Poisson
  //    arrivals, the Fig. 6 model/dataset mix, unique datasets per job.
  TraceOptions options;
  options.num_jobs = 200;
  options.mean_interarrival = Minutes(5);
  options.median_duration = Hours(3);
  options.max_duration = Days(2);
  options.seed = 7;
  const Trace trace = TraceGenerator(options).Generate();
  std::printf("Generated %zu jobs, %d total GPU demand, %zu datasets\n\n", trace.jobs.size(),
              trace.TotalGpuDemand(), trace.catalog.size());

  // 3. Sweep schedulers x cache systems.
  Table table({"configuration", "avg JCT (min)", "p90 JCT (min)", "makespan (min)",
               "avg fairness"});
  for (const SchedulerKind scheduler :
       {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
    for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kAlluxio,
                                    CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
      ExperimentConfig config;
      config.policy = PolicyName(scheduler, cache);
      config.sim = cluster;
      const SimResult result = RunExperiment(trace, config);
      table.AddRow({config.policy, Fmt(result.AvgJctMinutes()),
                    Fmt(result.JctSamplesMinutes().Percentile(90)),
                    Fmt(result.MakespanMinutes()), Fmt(result.AvgFairness(), 2)});
    }
  }
  table.Print();
  std::printf("\nReading the table: within each scheduler, SiloD's co-designed allocation\n"
              "leads or ties the independent cache systems on JCT and makespan (Quiver can\n"
              "tie when whole datasets happen to fit) and clearly wins on fairness under\n"
              "Gavel, where the objective needs storage awareness to optimize.\n");
  return 0;
}
