// Shared scaffolding for the benchmark harnesses: the paper's cluster
// configurations (Table 5) and trace recipes, plus result formatting.
//
// Absolute numbers are not expected to match the paper (our substrate is a
// simulator, not the authors' Azure testbed); every harness prints the same
// rows/series the paper reports so the *shape* — who wins, by what factor,
// where crossovers fall — can be compared.  EXPERIMENTS.md records the
// comparison.
#ifndef SILOD_BENCH_BENCH_UTIL_H_
#define SILOD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/system.h"
#include "src/workload/trace_gen.h"

namespace silod::bench {

// --- Cluster configurations (Table 5 scales) --------------------------------

// 8 V100 / 2 TB SSD cache / 1.6 Gbps egress (§7.1.1).
inline SimConfig MicroClusterConfig() {
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = TB(2);
  config.resources.remote_io = Gbps(1.6);
  config.resources.num_servers = 2;
  config.reschedule_period = Minutes(10);
  return config;
}

// 96 GPUs / 8 Gbps egress (§7.1.2).  Cache scaled to keep it scarce relative
// to the multi-epoch working set (the regime where cache policy matters).
inline SimConfig Cluster96Config() {
  SimConfig config;
  config.resources.total_gpus = 96;
  config.resources.total_cache = TB(7.2);
  config.resources.remote_io = Gbps(8);
  config.resources.num_servers = 24;
  config.reschedule_period = Minutes(10);
  return config;
}

// 400 V100 / 32 Gbps egress (§7.2).
inline SimConfig Cluster400Config() {
  SimConfig config;
  config.resources.total_gpus = 400;
  config.resources.total_cache = TB(30);
  config.resources.remote_io = Gbps(32);
  config.resources.num_servers = 100;
  config.reschedule_period = Minutes(10);
  return config;
}

// --- Trace recipes -----------------------------------------------------------

// The large-scale simulation trace (§7.2): Philly-like heavy-tailed
// durations, saturating arrivals so the queue builds up, unique datasets
// unless share_fraction > 0.
inline TraceOptions Trace400Options(double share_fraction = 0.0, double gpu_speed = 1.0,
                                    std::uint64_t seed = 2) {
  TraceOptions options;
  options.num_jobs = 1200;
  options.mean_interarrival = Minutes(1);
  options.median_duration = Hours(3);
  options.duration_sigma = 1.4;
  options.max_duration = Days(2);
  options.share_fraction = share_fraction;
  options.gpu_speed_scale = gpu_speed;
  options.seed = seed;
  return options;
}

// The 96-GPU experiment trace (§7.1.2), proportionally smaller.
inline TraceOptions Trace96Options(std::uint64_t seed = 3) {
  TraceOptions options;
  options.num_jobs = 300;
  options.mean_interarrival = Minutes(4);
  options.median_duration = Hours(3);
  options.duration_sigma = 1.4;
  options.max_duration = Days(2);
  options.seed = seed;
  return options;
}

// --- Result helpers ----------------------------------------------------------

struct RunRow {
  std::string system;
  SimResult result;
};

inline SimResult Run(const Trace& trace, SchedulerKind scheduler, CacheSystem cache,
                     SimConfig sim, EngineKind engine = EngineKind::kFlow,
                     SchedulerOptions scheduler_options = {}) {
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.scheduler_options = scheduler_options;
  config.sim = sim;
  config.engine = engine;
  return RunExperiment(trace, config);
}

inline const std::vector<CacheSystem>& AllCacheSystems() {
  static const std::vector<CacheSystem> kSystems = {
      CacheSystem::kSiloD, CacheSystem::kAlluxio, CacheSystem::kCoorDl, CacheSystem::kQuiver};
  return kSystems;
}

inline const std::vector<SchedulerKind>& AllSchedulers() {
  static const std::vector<SchedulerKind> kSchedulers = {
      SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel};
  return kSchedulers;
}

// Prints a downsampled (time, value) series as two aligned rows.
inline void PrintSeries(const char* label, const TimeSeries& series, double value_scale,
                        std::size_t points = 12) {
  const auto samples = series.Downsample(points);
  std::printf("%s\n  t(min): ", label);
  for (const auto& [t, v] : samples) {
    std::printf("%8.0f", ToMinutes(t));
  }
  std::printf("\n  value : ");
  for (const auto& [t, v] : samples) {
    std::printf("%8.1f", v * value_scale);
  }
  std::printf("\n");
}

}  // namespace silod::bench

#endif  // SILOD_BENCH_BENCH_UTIL_H_
