// Ablation A2: fidelity of the layers of the methodology.
//
// (1) Estimator accuracy (§4's "error within 3%"): SiloDPerf's predicted
//     steady-state throughput vs the mini-batch engine's measurement, across
//     cache fractions and egress limits.
// (2) Engine cross-validation (Table 6's simulation columns): flow vs fine
//     engine on the micro-benchmark trace for every cache system.
// (3) Ablation of the LRU thrashing model: predicted vs simulated hit ratio.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cache/analytic.h"
#include "src/cache/item_cache.h"
#include "src/common/rng.h"
#include "src/estimator/ioperf.h"

using namespace silod;
using namespace silod::bench;

namespace {

// Measured steady-state throughput of one ResNet-50 job after its cold first
// epoch, from the fine engine.
double MeasuredSteady(double cache_frac, BytesPerSec egress) {
  const ModelZoo zoo;
  Trace trace;
  const Bytes d = GB(20);
  const DatasetId ds = trace.catalog.Add("x", d, MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, ds, 1.0, 0);
  job.total_bytes = 6 * d;
  trace.jobs.push_back(job);

  SimConfig sim;
  sim.resources.total_gpus = 1;
  sim.resources.total_cache = static_cast<Bytes>(cache_frac * static_cast<double>(d));
  sim.resources.remote_io = egress;
  sim.resources.num_servers = 1;
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = sim;
  config.engine = EngineKind::kFine;
  const SimResult r = RunExperiment(trace, config);
  const double cold = static_cast<double>(d) / std::min<double>(egress, job.ideal_io);
  return 5.0 * static_cast<double>(d) / (r.jobs[0].Jct() - cold);
}

}  // namespace

int main() {
  std::printf("=== A2.1: SiloDPerf prediction vs mini-batch measurement ===\n");
  Table est({"cache c/d", "egress (MB/s)", "predicted (MB/s)", "measured (MB/s)", "error"});
  double worst_error = 0;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (const double egress : {20.0, 60.0}) {
      const BytesPerSec predicted =
          SiloDPerfThroughput(MBps(114), MBps(egress),
                              static_cast<Bytes>(frac * static_cast<double>(GB(20))), GB(20));
      const double measured = MeasuredSteady(frac, MBps(egress));
      const double error = std::abs(measured - predicted) / predicted;
      worst_error = std::max(worst_error, error);
      est.AddRow({Fmt(frac, 2), Fmt(egress, 0), Fmt(ToMBps(predicted)), Fmt(ToMBps(measured)),
                  Fmt(error * 100, 2) + "%"});
    }
  }
  est.Print();
  std::printf("Worst error: %.2f%%  (paper claims <= 3%%)\n", worst_error * 100);

  std::printf("\n=== A2.2: flow engine vs fine engine on the micro-benchmark ===\n");
  const Trace trace = MakeMicrobenchmarkTrace();
  const SimConfig sim = MicroClusterConfig();
  Table fidelity({"system", "fine JCT (min)", "flow JCT (min)", "JCT err", "makespan err"});
  for (const CacheSystem cache : AllCacheSystems()) {
    const SimResult fine = Run(trace, SchedulerKind::kFifo, cache, sim, EngineKind::kFine);
    const SimResult flow = Run(trace, SchedulerKind::kFifo, cache, sim, EngineKind::kFlow);
    fidelity.AddRow(
        {CacheSystemName(cache), Fmt(fine.AvgJctMinutes()), Fmt(flow.AvgJctMinutes()),
         Fmt(std::abs(flow.AvgJctSeconds() / fine.AvgJctSeconds() - 1) * 100, 2) + "%",
         Fmt(std::abs(flow.makespan / fine.makespan - 1) * 100, 2) + "%"});
  }
  fidelity.Print();
  std::printf("Paper reference: simulator errors up to 5.7%% JCT / 8.5%% makespan.\n");

  std::printf("\n=== A2.3: LRU shuffled-scan model vs item-level simulation ===\n");
  Table lru({"cache fraction", "model hit ratio", "simulated hit ratio"});
  for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const std::int64_t n = 4000;
    LruItemCache cache(static_cast<Bytes>(frac * static_cast<double>(n)));
    Rng rng(7);
    std::vector<std::int64_t> order(n);
    for (std::int64_t i = 0; i < n; ++i) {
      order[static_cast<std::size_t>(i)] = i;
    }
    std::int64_t hits = 0;
    std::int64_t total = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
      rng.Shuffle(order);
      for (const std::int64_t item : order) {
        const bool hit = cache.Access(ItemKey{0, item});
        if (!hit) {
          cache.Admit(ItemKey{0, item}, 1);
        }
        if (epoch > 0) {
          hits += hit;
          ++total;
        }
      }
    }
    lru.AddRow({Fmt(frac, 1), Fmt(LruScanHitFromFraction(frac), 3),
                Fmt(static_cast<double>(hits) / static_cast<double>(total), 3)});
  }
  lru.Print();
  std::printf("The closed form 1 - t + t ln t (t = 1 - c/d) sits well below uniform's c/d\n"
              "everywhere — the thrashing penalty the flow engine charges Alluxio.\n");
  return 0;
}
