#include "src/sim/flow_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/cache/analytic.h"
#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/sched/gavel.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

constexpr double kEps = 1e-6;           // Bytes-scale tolerance.
constexpr int kSharedLruIterations = 8;

}  // namespace

FlowEngine::FlowEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
                       SimConfig config)
    : trace_(trace), config_(config), core_(trace, std::move(scheduler), &config_) {
  jobs_.resize(trace_->jobs.size());
  for (const JobSpec& spec : trace_->jobs) {
    JobState& s = jobs_[static_cast<std::size_t>(spec.id)];
    s.spec = &spec;
    s.remaining = static_cast<double>(spec.total_bytes);
    metrics_.OnSubmit(spec);
  }
  datasets_.resize(trace_->catalog.size());
  dataset_jobs_.resize(datasets_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    dataset_jobs_[static_cast<std::size_t>(jobs_[i].spec->dataset)].push_back(
        static_cast<JobId>(i));
  }
}

std::vector<JobView> FlowEngine::JobViews() const {
  std::vector<JobView> views;
  for (const JobState& s : jobs_) {
    if (!s.arrived || s.finished || s.crashed) {
      continue;  // A crashed worker holds no resources until it restarts.
    }
    JobView view;
    view.spec = s.spec;
    view.remaining_bytes = static_cast<Bytes>(std::max(0.0, s.remaining));
    view.running = s.running;
    view.effective_cache = static_cast<Bytes>(s.effective);
    view.gpu_type = s.gpu_type;
    views.push_back(view);
  }
  return views;
}

void FlowEngine::Reschedule(Seconds now) {
  if (!core_.Solve(now, JobViews(), &plan_)) {
    return;
  }

  // Apply dataset quotas; shrinking evicts uniformly at random, which removes
  // effective and ineffective items in proportion.  With Hoard prefetching,
  // unallocated ("opportunistic") cache contents survive as long as the pool
  // has room; they are evicted first when quotas need the space.
  Bytes total_quota = 0;
  for (const auto& [dataset_id, quota] : plan_.dataset_cache) {
    if (dataset_id >= 0 && static_cast<std::size_t>(dataset_id) < datasets_.size()) {
      total_quota += quota;
    }
  }
  for (std::size_t d = 0; d < datasets_.size(); ++d) {
    ApplyDatasetQuota(d);
  }
  if (config_.prefetch_waiting) {
    // Evict opportunistic data (largest holdings first) until quotas plus
    // opportunistic contents fit the pool.
    double opportunistic = 0;
    std::vector<std::size_t> holders;
    for (std::size_t d = 0; d < datasets_.size(); ++d) {
      if (datasets_[d].quota == 0 && datasets_[d].cached > 0) {
        opportunistic += datasets_[d].cached;
        holders.push_back(d);
      }
    }
    double budget = static_cast<double>(config_.resources.total_cache - total_quota);
    if (opportunistic > budget) {
      std::sort(holders.begin(), holders.end(), [&](std::size_t a, std::size_t b) {
        return datasets_[a].cached > datasets_[b].cached;
      });
      for (std::size_t d : holders) {
        if (opportunistic <= budget) {
          break;
        }
        const double excess = opportunistic - budget;
        const double drop = std::min(excess, datasets_[d].cached);
        ShrinkDataset(d, datasets_[d].cached - drop);
        opportunistic -= drop;
      }
    }
  }

  for (JobState& s : jobs_) {
    if (!s.arrived || s.finished || s.crashed) {
      continue;
    }
    const JobAllocation& alloc = plan_.Get(s.spec->id);
    s.throttle = plan_.manages_remote_io ? alloc.remote_io : kUnlimitedRate;
    if (!alloc.running && s.running) {
      // Preemption (SRTF plans): suspend in place — progress, epoch position
      // and cache effectiveness survive; the resume penalty is charged below.
      s.running = false;
      s.rate = 0;
      s.io_rate = 0;
      s.gpu_type = -1;
      s.speed = 1.0;
      continue;
    }
    if (alloc.running && s.running && alloc.gpu_type != s.gpu_type) {
      // Migration across GPU types (preemptive plans only): checkpoint on the
      // old type, restore on the new one — same cost as a suspend/resume pair.
      s.gpu_type = alloc.gpu_type;
      s.speed = alloc.speed;
      if (s.gpu_type >= 0) {
        metrics_.OnAssign(s.spec->id, config_.topology.gpu_types()[static_cast<std::size_t>(s.gpu_type)].name);
      }
      s.remaining += config_.preempt_resume_penalty * EffectiveIdeal(s.spec->ideal_io, s.speed);
    }
    if (alloc.running && !s.running) {
      s.running = true;
      s.gpu_type = alloc.gpu_type;
      s.speed = alloc.speed;
      if (s.gpu_type >= 0) {
        metrics_.OnAssign(s.spec->id, config_.topology.gpu_types()[static_cast<std::size_t>(s.gpu_type)].name);
      }
      metrics_.OnStart(s.spec->id, now);
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      if (!s.started) {
        s.started = true;
        s.epoch_pos = 0;
        switch (plan_.cache_model) {
          case CacheModelKind::kDatasetQuota:
            // Items cached by earlier jobs predate this job's first epoch and
            // are immediately effective for it.
            s.effective = std::min(datasets_[static_cast<std::size_t>(d.id)].cached,
                                   static_cast<double>(d.size));
            break;
          case CacheModelKind::kPerJobStatic:
          case CacheModelKind::kSharedLru:
          case CacheModelKind::kSharedLfu:
            s.effective = 0;
            break;
        }
      } else {
        // Resume after preemption: checkpoint restore and pipeline refill
        // cost work-time, charged as extra bytes at the job's ideal rate.
        s.remaining += config_.preempt_resume_penalty * EffectiveIdeal(s.spec->ideal_io, s.speed);
      }
    }
    if (plan_.cache_model == CacheModelKind::kPerJobStatic && s.running) {
      s.private_quota = alloc.private_cache;
      if (s.private_cached > static_cast<double>(s.private_quota)) {
        const double keep = s.private_cached > 0
                                ? static_cast<double>(s.private_quota) / s.private_cached
                                : 0.0;
        s.effective *= keep;
        s.private_cached = static_cast<double>(s.private_quota);
      }
    }
  }
}

void FlowEngine::ShrinkDataset(std::size_t d, double limit) {
  DatasetState& ds = datasets_[d];
  if (ds.cached <= limit) {
    return;
  }
  const double keep = ds.cached > 0 ? limit / ds.cached : 0.0;
  for (const JobId id : dataset_jobs_[d]) {
    JobState& s = jobs_[static_cast<std::size_t>(id)];
    if (s.arrived && !s.finished) {
      s.effective *= keep;
    }
  }
  ds.cached = limit;
}

void FlowEngine::ApplyDatasetQuota(std::size_t d) {
  const auto it = plan_.dataset_cache.find(static_cast<DatasetId>(d));
  const Bytes quota = it == plan_.dataset_cache.end() ? 0 : it->second;
  DatasetState& ds = datasets_[d];
  const auto zone_it = plan_.dataset_zone_cache.find(static_cast<DatasetId>(d));
  if (zone_it != plan_.dataset_zone_cache.end() && !config_.topology.empty()) {
    ApplyZoneQuota(d, quota, zone_it->second);
  } else {
    if (!ds.zone_cached.empty()) {
      // The plan stopped spreading this dataset: its fluid is oblivious
      // again (uniform loss on the next crash).
      ds.zone_cached.clear();
      ds.zone_limit.clear();
    }
    if (!(config_.prefetch_waiting && quota == 0)) {
      ShrinkDataset(d, static_cast<double>(quota));
    }
    ds.quota = quota;
  }
}

void FlowEngine::ApplyZoneQuota(std::size_t d, Bytes quota, const std::vector<Bytes>& shares) {
  DatasetState& ds = datasets_[d];
  const int num_zones = config_.topology.num_zones();
  if (static_cast<int>(ds.zone_cached.size()) != num_zones) {
    // First zone-aware plan for this dataset: attribute any existing fluid
    // proportional to the incoming shares (the rule that placed it).
    const double before = ds.cached;
    ds.zone_cached.assign(static_cast<std::size_t>(num_zones), 0.0);
    double total_share = 0;
    for (const Bytes share : shares) {
      total_share += static_cast<double>(share);
    }
    if (before > 0 && total_share > 0) {
      for (int z = 0; z < num_zones; ++z) {
        ds.zone_cached[static_cast<std::size_t>(z)] =
            before * static_cast<double>(shares[static_cast<std::size_t>(z)]) / total_share;
      }
    }
  }
  ds.zone_limit.assign(shares.begin(), shares.end());

  // Rebalance against the alive-aware caps: fluid above a zone's cap first
  // migrates into other zones' headroom (quota that moved between zones, or
  // a recovering zone reclaiming its share, travels over the intra-cluster
  // fabric, not the remote link) and only the remainder is evicted.
  const std::vector<double> caps = ZoneFillCaps(ds);
  const double before = ds.cached;
  double spill = 0;
  double total_headroom = 0;
  std::vector<double> headroom(static_cast<std::size_t>(num_zones), 0.0);
  for (int z = 0; z < num_zones; ++z) {
    double& zc = ds.zone_cached[static_cast<std::size_t>(z)];
    if (zc > caps[static_cast<std::size_t>(z)]) {
      spill += zc - caps[static_cast<std::size_t>(z)];
      zc = caps[static_cast<std::size_t>(z)];
    }
    headroom[static_cast<std::size_t>(z)] = caps[static_cast<std::size_t>(z)] - zc;
    total_headroom += headroom[static_cast<std::size_t>(z)];
  }
  double after = 0;
  const double moved = std::min(spill, total_headroom);
  for (int z = 0; z < num_zones; ++z) {
    if (moved > 0) {
      ds.zone_cached[static_cast<std::size_t>(z)] +=
          moved * headroom[static_cast<std::size_t>(z)] / total_headroom;
    }
    after += ds.zone_cached[static_cast<std::size_t>(z)];
  }
  if (after < before - kEps && before > 0) {
    const double keep = after / before;
    for (const JobId id : dataset_jobs_[d]) {
      JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (s.arrived && !s.finished) {
        s.effective *= keep;
      }
    }
  }
  ds.cached = after;
  ds.quota = quota;
}

std::vector<double> FlowEngine::ZoneFillCaps(const DatasetState& ds) const {
  const int num_zones = config_.topology.num_zones();
  std::vector<double> caps(static_cast<std::size_t>(num_zones), 0.0);
  double alive_total = 0;
  double dead_total = 0;
  for (int z = 0; z < num_zones; ++z) {
    const double limit = ds.zone_limit[static_cast<std::size_t>(z)];
    const double alive = limit * core_.ZoneAliveFraction(z);
    caps[static_cast<std::size_t>(z)] = alive;
    alive_total += alive;
    dead_total += limit - alive;
  }
  if (dead_total > 0 && alive_total > 0) {
    // Survivors absorb the dead capacity in proportion to their own alive
    // share: the caps still sum to the full quota (the shrunken pool is
    // enforced separately), matching the oblivious engine's refill room.
    for (int z = 0; z < num_zones; ++z) {
      caps[static_cast<std::size_t>(z)] +=
          dead_total * caps[static_cast<std::size_t>(z)] / alive_total;
    }
  }
  return caps;
}

void FlowEngine::FillZones(DatasetState& ds, double delta) {
  // Never fill past the dataset-level limit (quota may exceed d.size).
  delta = std::min(delta, ds.fill_limit - ds.cached);
  if (delta <= 0) {
    return;
  }
  const int num_zones = config_.topology.num_zones();
  const std::vector<double> caps = ZoneFillCaps(ds);
  std::vector<double> headroom(static_cast<std::size_t>(num_zones), 0.0);
  double total_headroom = 0;
  for (int z = 0; z < num_zones; ++z) {
    headroom[static_cast<std::size_t>(z)] = std::max(
        0.0, caps[static_cast<std::size_t>(z)] - ds.zone_cached[static_cast<std::size_t>(z)]);
    total_headroom += headroom[static_cast<std::size_t>(z)];
  }
  if (total_headroom <= 0) {
    return;
  }
  const double assign = std::min(delta, total_headroom);
  for (int z = 0; z < num_zones; ++z) {
    ds.zone_cached[static_cast<std::size_t>(z)] +=
        assign * headroom[static_cast<std::size_t>(z)] / total_headroom;
  }
  ds.cached += assign;
}

void FlowEngine::ComputeRates(Seconds now) {
  (void)now;
  std::vector<JobState*> running;
  for (JobState& s : jobs_) {
    s.rate = 0;
    s.io_rate = 0;
    if (s.running && !s.finished) {
      running.push_back(&s);
    }
  }
  for (DatasetState& ds : datasets_) {
    ds.fill_rate = 0;
    ds.fill_limit = 0;
  }
  prefetch_rate_ = 0;
  if (running.empty() && !config_.prefetch_waiting) {
    return;
  }

  const std::size_t n = running.size();
  std::vector<double> miss(n);

  if (plan_.cache_model == CacheModelKind::kSharedLru ||
      plan_.cache_model == CacheModelKind::kSharedLfu) {
    // Fixed point between loading rates and the shared-pool hit ratios.  LFU
    // degenerates to the same scan dynamics under exactly-once epochs, so the
    // two policies share the fluid model.
    std::vector<BytesPerSec> rates(n);
    std::vector<BytesPerSec> ideals(n);
    std::vector<Bytes> sizes(n);
    for (std::size_t i = 0; i < n; ++i) {
      ideals[i] = EffectiveIdeal(running[i]->spec->ideal_io, running[i]->speed);
      rates[i] = ideals[i];
      sizes[i] = trace_->catalog.Get(running[i]->spec->dataset).size;
    }
    std::vector<BytesPerSec> granted(n, 0);
    for (int iter = 0; iter < kSharedLruIterations; ++iter) {
      const SharedLruResult lru =
          SharedLruModel(rates, sizes, config_.resources.total_cache);
      std::vector<BytesPerSec> demand(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double h = running[i]->warm ? lru.hit_ratio[i] : 0.0;
        miss[i] = 1.0 - h;
        demand[i] = ideals[i] * miss[i];
      }
      granted = MaxMinShare(demand,
                            std::vector<BytesPerSec>(n, config_.resources.per_job_remote_cap),
                            config_.resources.remote_io);
      for (std::size_t i = 0; i < n; ++i) {
        rates[i] = miss[i] > kEps ? std::min(ideals[i], granted[i] / miss[i]) : ideals[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      running[i]->rate = rates[i];
      running[i]->io_rate = rates[i] * miss[i];
      // Track the LRU-resident share as the job's "effective" cache for
      // reporting; epoch boundaries refresh it too.
      running[i]->effective = rates[i] > 0 && running[i]->warm
                                  ? (1.0 - miss[i]) * static_cast<double>(sizes[i])
                                  : 0.0;
    }
    return;
  }

  // Quota-based models (SiloD, Quiver) and CoorDL's private static caches.
  std::vector<BytesPerSec> demand(n);
  std::vector<BytesPerSec> caps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const JobState& s = *running[i];
    const Dataset& d = trace_->catalog.Get(s.spec->dataset);
    const double hit =
        std::min(1.0, std::max(0.0, s.effective / static_cast<double>(d.size)));
    miss[i] = 1.0 - hit;
    demand[i] = EffectiveIdeal(s.spec->ideal_io, s.speed) * miss[i];
    caps[i] = std::min(config_.resources.per_job_remote_cap, s.throttle);
  }
  const std::vector<BytesPerSec> granted =
      MaxMinShare(demand, caps, config_.resources.remote_io);

  for (std::size_t i = 0; i < n; ++i) {
    JobState& s = *running[i];
    const BytesPerSec ideal = EffectiveIdeal(s.spec->ideal_io, s.speed);
    s.io_rate = granted[i];
    s.rate = miss[i] > kEps ? std::min(ideal, granted[i] / miss[i]) : ideal;

    // Cache fill: missed fetches are admitted until the quota is reached.
    if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
      ds.fill_limit = std::min(static_cast<double>(ds.quota), static_cast<double>(d.size));
      if (ds.cached < ds.fill_limit - kEps) {
        ds.fill_rate += s.io_rate;
      }
    }
    // Per-job static (CoorDL) fill is handled in the advance step via io_rate.
  }

  // Hoard mode: pour leftover egress into the head-of-queue waiting job's
  // dataset, filling unallocated cache space.
  if (config_.prefetch_waiting && plan_.cache_model == CacheModelKind::kDatasetQuota) {
    BytesPerSec used = 0;
    for (const JobState* s : running) {
      used += s->io_rate;
    }
    const BytesPerSec leftover = std::max(0.0, config_.resources.remote_io - used);
    if (leftover > 0) {
      double occupied = 0;
      for (const DatasetState& ds : datasets_) {
        occupied += std::max(ds.cached, static_cast<double>(ds.quota));
      }
      const double pool_space =
          std::max(0.0, static_cast<double>(config_.resources.total_cache) - occupied);
      if (pool_space > kEps) {
        const JobState* head = nullptr;
        for (const JobState& s : jobs_) {
          if (!s.arrived || s.finished || s.running) {
            continue;
          }
          const Dataset& d = trace_->catalog.Get(s.spec->dataset);
          const DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
          if (ds.cached + kEps < static_cast<double>(d.size) &&
              (head == nullptr || s.spec->submit_time < head->spec->submit_time)) {
            head = &s;
          }
        }
        if (head != nullptr) {
          const Dataset& d = trace_->catalog.Get(head->spec->dataset);
          DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
          ds.fill_limit = std::max(ds.fill_limit,
                                   std::min(static_cast<double>(d.size), ds.cached + pool_space));
          ds.fill_rate += leftover;
          prefetch_rate_ = leftover;
        }
      }
    }
  }
}

FaultPhysics::Worker FlowEngine::WorkerOf(JobId id) const {
  const JobState& s = jobs_[static_cast<std::size_t>(id)];
  return {s.arrived, s.running, s.finished, s.crashed};
}

void FlowEngine::OnServerCrash(const ServerCrash& crash) {
  // Zone-aware datasets lose the crashed server's slice of the crashed
  // *zone's* share; oblivious ones lose ~1/prev_alive of their fluid
  // (uniform placement).  Effectiveness drops in proportion either way.
  FaultStats& stats = core_.stats();
  const std::string* zone_name =
      crash.zone >= 0 ? &config_.topology.zones()[static_cast<std::size_t>(crash.zone)].name
                      : nullptr;
  auto charge_loss = [&](double lost, Bytes block_size) {
    const std::int64_t blocks = static_cast<std::int64_t>(lost / static_cast<double>(block_size));
    stats.blocks_lost += blocks;
    stats.bytes_lost += lost;
    if (zone_name != nullptr) {
      stats.blocks_lost_by_zone[*zone_name] += blocks;
    }
  };
  const double keep = 1.0 - 1.0 / crash.prev_alive;
  for (std::size_t d = 0; d < datasets_.size(); ++d) {
    DatasetState& ds = datasets_[d];
    if (ds.cached <= 0) {
      continue;
    }
    // Spread datasets exist only under a topology, which Cover() made
    // total: every crashed server has a zone with a live member.
    double lost = ds.cached * (1.0 - keep);
    if (!ds.zone_cached.empty()) {
      double& zc = ds.zone_cached[static_cast<std::size_t>(crash.zone)];
      lost = zc / crash.prev_zone_alive;
      zc -= lost;
    }
    if (lost <= 0) {
      continue;
    }
    const double dataset_keep = ds.cached > 0 ? 1.0 - lost / ds.cached : 0.0;
    ds.cached -= lost;
    charge_loss(lost, trace_->catalog.Get(static_cast<DatasetId>(d)).block_size);
    for (const JobId id : dataset_jobs_[d]) {
      JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (s.arrived && !s.finished) {
        s.effective *= dataset_keep;
      }
    }
  }
  // Per-job partitions (CoorDL-style) are striped across the same
  // servers: each job loses its share of the crashed one too.
  if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
    for (JobState& s : jobs_) {
      if (!s.arrived || s.finished || s.private_cached <= 0) {
        continue;
      }
      const double lost = s.private_cached * (1.0 - keep);
      s.private_cached -= lost;
      s.effective *= keep;
      charge_loss(lost, trace_->catalog.Get(s.spec->dataset).block_size);
    }
  }
}

void FlowEngine::OnWorkerCrash(JobId id, Seconds /*now*/) {
  JobState& s = jobs_[static_cast<std::size_t>(id)];
  FaultStats& stats = core_.stats();
  // RestartCost in the fluid model: the un-checkpointed progress suffix
  // is re-trained, charged as extra bytes (re-read through the normal
  // rate model once the job resumes).
  const Dataset& d = trace_->catalog.Get(s.spec->dataset);
  double lost_bytes = 0;
  const double done = std::max(0.0, static_cast<double>(s.spec->total_bytes) - s.remaining);
  switch (config_.restart_cost.policy) {
    case RestartCostPolicy::kCheckpointEverything:
      break;
    case RestartCostPolicy::kLosePartialEpoch:
      lost_bytes = std::min(s.epoch_pos, done);
      break;
    case RestartCostPolicy::kCheckpointInterval: {
      const double interval =
          static_cast<double>(std::max<std::int64_t>(1, config_.restart_cost.interval_blocks)) *
          static_cast<double>(d.block_size);
      lost_bytes = std::fmod(done, interval);
      break;
    }
  }
  if (lost_bytes > 0) {
    s.remaining += lost_bytes;
    s.epoch_pos = std::max(0.0, s.epoch_pos - lost_bytes);
    stats.bytes_refetched += lost_bytes;
    // Lost compute-time at the rate the crashed worker actually ran at
    // (its held GPU type), before the placement is released below.
    stats.compute_lost += lost_bytes / EffectiveIdeal(s.spec->ideal_io, s.speed);
  }
  s.running = false;
  s.rate = 0;
  s.io_rate = 0;
  s.crashed = true;
  s.gpu_type = -1;
  s.speed = 1.0;
  if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
    // CoorDL's private cache lives on the crashed worker.
    s.private_cached = 0;
    s.effective = 0;
  }
}

void FlowEngine::OnWorkerRestart(JobId id) {
  // Re-admitted via the resume path (restore penalty applies).
  jobs_[static_cast<std::size_t>(id)].crashed = false;
}

void FlowEngine::RecordMetrics(Seconds now) {
  BytesPerSec total = 0;
  BytesPerSec ideal = 0;
  BytesPerSec io = 0;
  double fairness = std::numeric_limits<double>::infinity();
  double eff_num = 0;
  double eff_den = 0;
  int n_running = 0;
  for (const JobState& s : jobs_) {
    if (s.running && !s.finished) {
      ++n_running;
    }
  }
  // The equal-share denominator is job-independent: hoist it instead of
  // rebuilding a Snapshot and re-walking the resources per running job.
  const EqualShareParams eq_params =
      MakeEqualShareParams(config_.resources, std::max(1, n_running));
  for (const JobState& s : jobs_) {
    if (!s.running || s.finished) {
      continue;
    }
    total += s.rate;
    ideal += EffectiveIdeal(s.spec->ideal_io, s.speed);
    io += s.io_rate;
    const BytesPerSec eq = EqualShareThroughput(*s.spec, s.speed, trace_->catalog, eq_params);
    if (eq > 0) {
      fairness = std::min(fairness, s.rate / eq);
    }
    const Dataset& d = trace_->catalog.Get(s.spec->dataset);
    double quota = 0;
    switch (plan_.cache_model) {
      case CacheModelKind::kDatasetQuota:
        quota = static_cast<double>(
            std::min(datasets_[static_cast<std::size_t>(d.id)].quota, d.size));
        break;
      case CacheModelKind::kPerJobStatic:
        quota = static_cast<double>(std::min(s.private_quota, d.size));
        break;
      case CacheModelKind::kSharedLru:
      case CacheModelKind::kSharedLfu:
        quota = 0;  // No explicit allocation to compare against.
        break;
    }
    eff_num += std::min(s.effective, quota);
    eff_den += quota;
  }
  if (!std::isfinite(fairness)) {
    fairness = 0;
  }
  io += prefetch_rate_;
  metrics_.OnRates(now, total, ideal, io, fairness, eff_den > 0 ? eff_num / eff_den : 1.0);
}

SimResult FlowEngine::Run() {
  Seconds t = std::max(0.0, core_.NextArrivalTime());  // Jump to the first arrival.
  Seconds next_tick = config_.reschedule_period;
  bool need_resched = true;
  std::uint64_t steps = 0;

  while (!metrics_.AllFinished()) {
    SILOD_CHECK(++steps < 100'000'000ULL) << "flow engine step limit exceeded";
    SILOD_CHECK(t <= kMaxSimTime) << "simulated time exceeded one year at t=" << t;

    // Process arrivals at the current time.
    for (JobId id; core_.PopArrival(t, &id);) {
      jobs_[static_cast<std::size_t>(id)].arrived = true;
      need_resched = true;
    }

    if (need_resched) {
      Reschedule(t);
      need_resched = false;
    }
    ComputeRates(t);
    RecordMetrics(t);

    // Time to the next event.
    Seconds dt = std::min(core_.NextArrivalTime() - t, next_tick - t);
    dt = std::min(dt, core_.NextFaultTime() - t);
    for (const JobState& s : jobs_) {
      if (!s.running || s.finished || s.rate <= 0) {
        continue;
      }
      dt = std::min(dt, s.remaining / s.rate);
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      const double epoch_left = static_cast<double>(d.size) - s.epoch_pos;
      if (epoch_left > kEps) {
        dt = std::min(dt, epoch_left / s.rate);
      }
    }
    SILOD_CHECK(std::isfinite(dt)) << "simulation stalled at t=" << t << " with "
                                   << metrics_.finished_count() << " jobs finished";
    dt = std::max(dt, 0.0);

    // Advance.
    for (JobState& s : jobs_) {
      if (!s.running || s.finished) {
        continue;
      }
      const double delta = s.rate * dt;
      s.remaining -= delta;
      s.epoch_pos += delta;
      if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
        const Dataset& d = trace_->catalog.Get(s.spec->dataset);
        const double limit = std::min(static_cast<double>(s.private_quota),
                                      static_cast<double>(d.size));
        s.private_cached = std::min(limit, s.private_cached + s.io_rate * dt);
      }
    }
    // Advance the per-dataset cache fill.
    for (DatasetState& ds : datasets_) {
      if (ds.fill_rate > 0 && ds.cached < ds.fill_limit) {
        if (ds.zone_limit.empty()) {
          ds.cached = std::min(ds.fill_limit, ds.cached + ds.fill_rate * dt);
        } else {
          FillZones(ds, ds.fill_rate * dt);
        }
      }
    }
    t += dt;

    if (t + kTimeEps >= next_tick) {
      next_tick += config_.reschedule_period;
      need_resched = true;
    }

    // Inject faults before the completion scan so a crash at the same instant
    // as a completion takes effect first (mirrors the fine engine).  Every
    // fault triggers an immediate reschedule.
    if (core_.ApplyDueFaults(t, *this)) {
      need_resched = true;
    }

    // Epoch boundaries and completions.
    for (JobState& s : jobs_) {
      if (!s.running || s.finished) {
        continue;
      }
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      if (s.remaining <= kEps) {
        s.finished = true;
        s.running = false;
        s.remaining = 0;
        metrics_.OnFinish(s.spec->id, t);
        need_resched = true;
        continue;
      }
      if (s.epoch_pos + kEps >= static_cast<double>(d.size)) {
        s.epoch_pos = 0;
        const double old_effective = s.effective;
        const bool was_cold = !s.warm;
        s.warm = true;
        switch (plan_.cache_model) {
          case CacheModelKind::kDatasetQuota:
            s.effective = std::min(datasets_[static_cast<std::size_t>(d.id)].cached,
                                   static_cast<double>(d.size));
            break;
          case CacheModelKind::kPerJobStatic:
            s.effective = s.private_cached;
            break;
          case CacheModelKind::kSharedLru:
          case CacheModelKind::kSharedLfu:
            break;  // Effective tracked inside the rate fixed point.
        }
        // Re-run the scheduler only when the boundary materially changed the
        // job's cache effectiveness (first warm epoch or >1% of the dataset);
        // steady-state boundaries would otherwise trigger O(jobs) reschedules
        // per epoch across the cluster.  Rates are refreshed either way.
        if (was_cold ||
            std::abs(s.effective - old_effective) > 0.01 * static_cast<double>(d.size)) {
          need_resched = true;
        }
      }
    }
  }
  return core_.Finish(t, &metrics_);
}

}  // namespace silod
