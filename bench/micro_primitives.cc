// Google-benchmark microbenchmarks of the hot primitives: the max-min
// arbiter (runs on every engine event), the item caches (every block access),
// IOPerf (every estimator call) and the shared-LRU fluid model (every
// Alluxio rate fix-point).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/cache/analytic.h"
#include "src/cache/item_cache.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/core/system.h"
#include "src/estimator/ioperf.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

void BM_MaxMinShare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<BytesPerSec> demands(n);
  std::vector<BytesPerSec> caps(n);
  for (std::size_t i = 0; i < n; ++i) {
    demands[i] = rng.Uniform(MBps(1), MBps(200));
    caps[i] = rng.NextDouble() < 0.5 ? kUnlimitedRate : rng.Uniform(MBps(1), MBps(100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxMinShare(demands, caps, GBps(4)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MaxMinShare)->Arg(8)->Arg(64)->Arg(512);

template <typename Cache>
void AccessPattern(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Cache cache(n / 2);
  Rng rng(2);
  for (auto _ : state) {
    const auto item = static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    const ItemKey key{0, item};
    if (!cache.Access(key)) {
      cache.Admit(key, 1);
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_UniformCache(benchmark::State& state) { AccessPattern<UniformItemCache>(state); }
void BM_LruCache(benchmark::State& state) { AccessPattern<LruItemCache>(state); }
void BM_LfuCache(benchmark::State& state) { AccessPattern<LfuItemCache>(state); }
BENCHMARK(BM_UniformCache)->Arg(1 << 16);
BENCHMARK(BM_LruCache)->Arg(1 << 16);
BENCHMARK(BM_LfuCache)->Arg(1 << 16);

void BM_SiloDPerf(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiloDPerfThroughput(MBps(114), MBps(rng.Uniform(0, 200)),
                                                 GB(rng.Uniform(0, 143)), GB(143)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiloDPerf);

void BM_SharedLruModel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<BytesPerSec> rates(n);
  std::vector<Bytes> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = rng.Uniform(MBps(2), MBps(114));
    sizes[i] = static_cast<Bytes>(rng.Uniform(static_cast<double>(GB(100)),
                                              static_cast<double>(TB(2))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SharedLruModel(rates, sizes, TB(30)));
  }
}
BENCHMARK(BM_SharedLruModel)->Arg(16)->Arg(128);

// Whole-engine throughput: one scheduling-heavy 400-GPU flow-engine run and
// one mini-batch fine-engine run per iteration.  These are the regression
// canaries for the simulators themselves.
void BM_FlowEngine400Gpu(benchmark::State& state) {
  TraceOptions options;
  options.num_jobs = 300;
  options.mean_interarrival = Minutes(1);
  options.median_duration = Hours(2);
  options.max_duration = Days(1);
  options.seed = 6;
  const Trace trace = TraceGenerator(options).Generate();
  ExperimentConfig config;
  config.policy = "gavel+silod";
  config.sim.resources.total_gpus = 400;
  config.sim.resources.total_cache = TB(30);
  config.sim.resources.remote_io = Gbps(32);
  config.sim.resources.num_servers = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunExperiment(trace, config).makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * options.num_jobs);
}
BENCHMARK(BM_FlowEngine400Gpu)->Unit(benchmark::kMillisecond);

void BM_FineEngineSingleJob(benchmark::State& state) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("x", GB(10), MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 5 * GB(10);
  trace.jobs.push_back(job);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.engine = EngineKind::kFine;
  config.sim.resources.total_gpus = 1;
  config.sim.resources.total_cache = GB(5);
  config.sim.resources.remote_io = MBps(40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunExperiment(trace, config).makespan);
  }
  // ~3125 block fetches per run.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3125);
}
BENCHMARK(BM_FineEngineSingleJob)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace silod

BENCHMARK_MAIN();
