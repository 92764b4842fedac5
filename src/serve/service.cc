#include "src/serve/service.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/sched/allocation.h"

namespace silod {
namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string FormatU64(std::uint64_t value) { return std::to_string(value); }

std::string FormatDigest(std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

ServeResponse OkResponse() {
  ServeResponse response;
  response.code = StatusCode::kOk;
  return response;
}

// --- StateDigest mixing (FNV-1a, 64-bit, byte-at-a-time) ------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixByte(std::uint64_t* h, unsigned char b) {
  *h ^= b;
  *h *= kFnvPrime;
}

void MixU64(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    MixByte(h, static_cast<unsigned char>((v >> (8 * i)) & 0xff));
  }
}

// Raw bit pattern, so the digest distinguishes -0.0/0.0 and is exact.
void MixDouble(std::uint64_t* h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  MixU64(h, bits);
}

void MixString(std::uint64_t* h, const std::string& s) {
  MixU64(h, s.size());
  for (const char c : s) {
    MixByte(h, static_cast<unsigned char>(c));
  }
}

// --- Checkpoint text parsing (silodd-checkpoint-v1) -----------------------

// ServeRequest::GetInt for counters and request ids, which are never negative.
Result<std::uint64_t> GetU64(const ServeRequest& line, const std::string& key) {
  Result<std::int64_t> value = line.GetInt(key);
  if (!value.ok()) {
    return value.status();
  }
  if (*value < 0) {
    return Status::InvalidArgument(line.verb + ": argument '" + key + "' is negative");
  }
  return static_cast<std::uint64_t>(*value);
}

}  // namespace

bool IsMutatingVerb(const std::string& verb) {
  // `plan` forces a solve that flips running flags and stamps first-start
  // times, so it must replay; checkpoint/shutdown/query/stats/report leave
  // the scheduling state untouched.
  return verb == "submit" || verb == "complete" || verb == "cancel" || verb == "progress" ||
         verb == "reload-policy" || verb == "plan";
}

ServiceState::ServiceState(ServiceConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<ServiceState>> ServiceState::Create(ServiceConfig config) {
  if (config.resources.total_gpus <= 0) {
    return Status::InvalidArgument("total_gpus must be positive");
  }
  auto service = std::unique_ptr<ServiceState>(new ServiceState(std::move(config)));
  Result<ClusterTopology> topology = service->config_.topology.Resolve(
      service->config_.resources.num_servers, service->config_.resources.total_gpus);
  if (!topology.ok()) {
    return topology.status();
  }
  service->covered_topology_ = std::move(topology).value();
  Result<std::unique_ptr<IncrementalPlanner>> planner = IncrementalPlanner::Create(
      service->config_.policy, service->config_.scheduler, service->config_.planning);
  if (!planner.ok()) {
    return planner.status();
  }
  service->planner_ = std::move(planner).value();
  service->admission_ = std::make_unique<AdmissionController>(
      service->config_.admission, service->config_.resources.total_gpus);
  return service;
}

Result<std::unique_ptr<ServiceState>> ServiceState::CreateFromJournal(
    ServiceConfig config, const JournalOptions& journal, RecoveryInfo* recovery) {
  Result<std::unique_ptr<ServiceState>> service = Create(std::move(config));
  if (!service.ok()) {
    return service.status();
  }
  JournalScan scan;
  Result<std::unique_ptr<Journal>> wal = Journal::Open(journal, &scan);
  if (!wal.ok()) {
    return wal.status();
  }
  RecoveryInfo info;
  info.dropped_bytes = scan.dropped_bytes;
  if (scan.has_checkpoint) {
    if (const Status st = (*service)->RestoreFromCheckpoint(scan.checkpoint, &info); !st.ok()) {
      return st;
    }
    info.from_checkpoint = true;
  }
  (*service)->replaying_ = true;
  for (const std::string& payload : scan.requests) {
    Result<ServeRequest> request = ServeRequest::Decode(payload);
    if (!request.ok()) {
      // A CRC-valid record that fails to decode is a version mismatch, not a
      // torn tail; starting over it would silently drop accepted state.
      return Status::Internal("journal replay: undecodable request record: " +
                              request.status().message());
    }
    const ServeResponse response = (*service)->Handle(*request);
    ++info.replayed_requests;
    if (!response.ok()) {
      // The original run journaled the request before learning it would fail,
      // so failures replay too; they are expected, counted, and non-fatal.
      ++info.replayed_errors;
    }
  }
  (*service)->replaying_ = false;
  (*service)->AttachJournal(std::move(wal).value());
  (*service)->recovery_ = info;
  if (recovery != nullptr) {
    *recovery = info;
  }
  return service;
}

Snapshot ServiceState::MakeSnapshot() const {
  return table_.BuildSnapshot(now_, config_.resources, covered_topology_.IfDeclared());
}

Status ServiceState::AdvanceClock(const ServeRequest& request) {
  if (!request.Has("t")) {
    return Status::Ok();
  }
  Result<double> t = request.GetDouble("t");
  if (!t.ok()) {
    return t.status();
  }
  if (*t < 0) {
    return Status::InvalidArgument(request.verb + ": t must be >= 0");
  }
  if (*t > now_) {
    now_ = *t;
  }
  return Status::Ok();
}

const AllocationPlan& ServiceState::Replan(bool force) {
  const Snapshot snapshot = MakeSnapshot();
  const AllocationPlan& plan = planner_->PlanFor(snapshot, force);
  for (const auto& job : table_.jobs()) {
    if (job->state != ServeJobState::kActive) {
      continue;
    }
    const bool running = plan.IsRunning(job->spec.id);
    if (running && !job->running && job->first_start_time < 0) {
      job->first_start_time = now_;
    }
    job->running = running;
    job->gpu_type = running ? plan.Get(job->spec.id).gpu_type : -1;
  }
  return plan;
}

const AllocationPlan& ServiceState::PlanNow() { return Replan(/*force=*/true); }

void ServiceState::PromoteQueued() {
  // Strict FIFO: promote from the head while the gate allows; the first job
  // that does not fit blocks everything behind it.
  for (ServeJob* job : table_.QueuedJobs()) {
    if (!admission_->LoadAllows(table_.ActiveGpuDemand(), job->spec.num_gpus)) {
      break;
    }
    job->state = ServeJobState::kActive;
    job->admit_time = now_;
    admission_->Record(AdmissionDecision::kAdmit);
    planner_->MarkEvent();
  }
}

ServeResponse ServiceState::Handle(const ServeRequest& request) {
  ++requests_;
  const bool mutating = IsMutatingVerb(request.verb);

  // Idempotent retry: a mutating request may carry a monotone rid.  A rid at
  // or below the last applied one was already applied (and journaled) by a
  // previous delivery — acknowledge it without touching state, so clients can
  // blindly re-send across a daemon restart.
  std::uint64_t rid = 0;
  if (mutating && request.Has("rid")) {
    Result<std::int64_t> parsed = request.GetInt("rid");
    if (!parsed.ok()) {
      ++errors_;
      return ServeResponse::FromStatus(parsed.status());
    }
    if (*parsed <= 0) {
      ++errors_;
      return ServeResponse::FromStatus(
          Status::InvalidArgument(request.verb + ": rid must be positive"));
    }
    rid = static_cast<std::uint64_t>(*parsed);
    if (rid <= last_rid_) {
      ++duplicates_;
      ServeResponse response = OkResponse();
      response.fields["duplicate"] = "1";
      response.fields["rid"] = FormatU64(rid);
      response.fields["last-rid"] = FormatU64(last_rid_);
      return response;
    }
  }

  // Write-ahead: the frame must be durable before it can change state.  A
  // failed append refuses the request — the client retries with the same rid.
  if (journal_ != nullptr && mutating && !replaying_) {
    if (const Status st = journal_->AppendRequest(request.Encode()); !st.ok()) {
      ++errors_;
      return ServeResponse::FromStatus(
          Status::Internal("journal append failed, refusing to apply: " + st.message()));
    }
  }

  ServeResponse response = Dispatch(request);
  if (!response.ok()) {
    ++errors_;
  } else if (rid > 0) {
    last_rid_ = rid;
  }

  // Auto-compaction keeps the journal bounded; failure is non-fatal (the
  // mutation is already durable in the un-compacted journal).
  if (journal_ != nullptr && mutating && !replaying_ && journal_->ShouldAutoCompact()) {
    if (const Status st = journal_->Compact(CheckpointText()); st.ok()) {
      ++checkpoints_;
    } else {
      SILOD_LOG(Warning) << "journal auto-compaction failed: " << st.message();
    }
  }
  return response;
}

ServeResponse ServiceState::Dispatch(const ServeRequest& request) {
  ServeResponse response;
  if (const Status st = AdvanceClock(request); !st.ok()) {
    response = ServeResponse::FromStatus(st);
  } else if (request.verb == "submit") {
    response = Submit(request);
  } else if (request.verb == "complete") {
    response = Complete(request);
  } else if (request.verb == "cancel") {
    response = Cancel(request);
  } else if (request.verb == "progress") {
    response = Progress(request);
  } else if (request.verb == "query") {
    response = Query(request);
  } else if (request.verb == "plan") {
    response = Plan(request);
  } else if (request.verb == "stats") {
    response = Stats();
  } else if (request.verb == "reload-policy") {
    response = ReloadPolicy(request);
  } else if (request.verb == "checkpoint") {
    response = Checkpoint();
  } else if (request.verb == "report") {
    // The JCT summary travels both as the RunReport JSON and as %.17g scalar
    // fields, so --serve-trace --check can compare doubles bit-for-bit
    // without a JSON parser.
    const RunReport report = Report();
    response = OkResponse();
    response.fields["json"] = report.ToJson();
    response.fields["jobs"] = std::to_string(report.jobs);
    response.fields["unfinished"] = std::to_string(report.unfinished_jobs);
    response.fields["finished"] = std::to_string(report.jct.finished);
    response.fields["avg-jct-min"] = FormatDouble(report.jct.avg_jct_min);
    response.fields["p50-jct-min"] = FormatDouble(report.jct.p50_jct_min);
    response.fields["p90-jct-min"] = FormatDouble(report.jct.p90_jct_min);
    response.fields["p95-jct-min"] = FormatDouble(report.jct.p95_jct_min);
    response.fields["p99-jct-min"] = FormatDouble(report.jct.p99_jct_min);
    response.fields["avg-queue-min"] = FormatDouble(report.jct.avg_queue_min);
    response.fields["avg-run-min"] = FormatDouble(report.jct.avg_run_min);
    response.fields["makespan-min"] = FormatDouble(report.makespan_min);
  } else if (request.verb == "shutdown") {
    shutdown_ = true;
    response = OkResponse();
    response.fields["state"] = "shutting-down";
  } else {
    response = ServeResponse::FromStatus(Status::InvalidArgument(
        "unknown verb '" + request.verb +
        "' (want submit|complete|cancel|progress|query|plan|stats|reload-policy|checkpoint|"
        "report|shutdown)"));
  }
  return response;
}

ServeResponse ServiceState::Submit(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  Result<std::int64_t> gpus = request.GetInt("gpus");
  Result<double> ideal_io = request.GetDouble("ideal-io");
  Result<std::int64_t> total_bytes = request.GetInt("total-bytes");
  Result<std::string> dataset_name = request.GetString("dataset");
  Result<std::int64_t> dataset_size = request.GetInt("dataset-size");
  for (const Status* st :
       {!key.ok() ? &key.status() : nullptr, !gpus.ok() ? &gpus.status() : nullptr,
        !ideal_io.ok() ? &ideal_io.status() : nullptr,
        !total_bytes.ok() ? &total_bytes.status() : nullptr,
        !dataset_name.ok() ? &dataset_name.status() : nullptr,
        !dataset_size.ok() ? &dataset_size.status() : nullptr}) {
    if (st != nullptr) {
      return ServeResponse::FromStatus(*st);
    }
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(Status::InvalidArgument("submit: missing required argument 't'"));
  }
  if (*gpus <= 0 || *ideal_io <= 0 || *total_bytes <= 0 || *dataset_size <= 0) {
    return ServeResponse::FromStatus(Status::InvalidArgument(
        "submit: gpus, ideal-io, total-bytes and dataset-size must be positive"));
  }
  // Reject a gang wider than every gpu-type pool instead of queueing it forever.
  if (const Status fits = covered_topology_.CheckGangFits(*gpus); !fits.ok()) {
    return ServeResponse::FromStatus(Status::InvalidArgument("submit: " + fits.message()));
  }
  if (table_.Find(*key).ok()) {
    return ServeResponse::FromStatus(Status::AlreadyExists("job '" + *key + "' already submitted"));
  }
  Bytes block_size = kDefaultBlockSize;
  if (request.Has("block-size")) {
    Result<std::int64_t> block = request.GetInt("block-size");
    if (!block.ok()) {
      return ServeResponse::FromStatus(block.status());
    }
    if (*block <= 0) {
      return ServeResponse::FromStatus(Status::InvalidArgument("submit: block-size must be positive"));
    }
    block_size = *block;
  }
  Result<DatasetId> dataset = table_.InternDataset(*dataset_name, *dataset_size, block_size);
  if (!dataset.ok()) {
    return ServeResponse::FromStatus(dataset.status());
  }

  const AdmissionDecision decision =
      admission_->Decide(table_.ActiveGpuDemand(),
                         static_cast<int>(table_.CountState(ServeJobState::kQueued)),
                         static_cast<int>(*gpus));
  admission_->Record(decision);
  if (decision == AdmissionDecision::kReject) {
    return ServeResponse::FromStatus(Status::ResourceExhausted(
        "admission rejected '" + *key + "': load would reach " +
        FormatDouble(admission_->LoadWith(table_.ActiveGpuDemand(), static_cast<int>(*gpus))) +
        " > " + FormatDouble(admission_->options().max_gpu_load) + " and the queue is full (" +
        std::to_string(admission_->options().max_queue) + ")"));
  }

  JobSpec spec;
  spec.name = *key;
  spec.model = request.Has("model") ? request.args.at("model") : "custom";
  spec.num_gpus = static_cast<int>(*gpus);
  spec.dataset = *dataset;
  spec.ideal_io = *ideal_io;
  spec.total_bytes = *total_bytes;
  spec.step_data_size = block_size;
  if (request.Has("tenant")) {
    spec.tenant = request.args.at("tenant");
  }
  if (request.Has("speeds")) {
    // Comma-separated `type=factor` pairs scaling the job's throughput on
    // each GPU type (unlisted types default to 1.0).
    const std::string& speeds = request.args.at("speeds");
    std::size_t pos = 0;
    while (pos < speeds.size()) {
      std::size_t comma = speeds.find(',', pos);
      if (comma == std::string::npos) {
        comma = speeds.size();
      }
      const std::string pair = speeds.substr(pos, comma - pos);
      pos = comma + 1;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        return ServeResponse::FromStatus(
            Status::InvalidArgument("submit: malformed speeds entry '" + pair + "'"));
      }
      char* end = nullptr;
      const double factor = std::strtod(pair.c_str() + eq + 1, &end);
      if (end == pair.c_str() + eq + 1 || *end != '\0' || !(factor > 0)) {
        return ServeResponse::FromStatus(
            Status::InvalidArgument("submit: speeds factor must be positive in '" + pair + "'"));
      }
      spec.speed_factors.emplace_back(pair.substr(0, eq), factor);
    }
  }
  if (request.Has("step-bytes")) {
    Result<std::int64_t> step = request.GetInt("step-bytes");
    if (!step.ok()) {
      return ServeResponse::FromStatus(step.status());
    }
    spec.step_data_size = *step;
  }
  Result<ServeJob*> job = table_.Add(*key, std::move(spec), now_);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }

  ServeResponse response = OkResponse();
  response.fields["decision"] = AdmissionDecisionName(decision);
  response.fields["job"] = std::to_string((*job)->spec.id);
  if (decision == AdmissionDecision::kAdmit) {
    (*job)->state = ServeJobState::kActive;
    (*job)->admit_time = now_;
    planner_->MarkEvent();
    Replan(/*force=*/false);
    response.fields["running"] = (*job)->running ? "1" : "0";
  } else {
    (*job)->state = ServeJobState::kQueued;
    response.fields["position"] = std::to_string(table_.CountState(ServeJobState::kQueued));
  }
  return response;
}

ServeResponse ServiceState::Complete(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("complete: missing required argument 't'"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  if ((*job)->state != ServeJobState::kActive) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is " + ServeJobStateName((*job)->state) + ", not active"));
  }
  (*job)->state = ServeJobState::kCompleted;
  (*job)->finish_time = now_;
  (*job)->running = false;
  (*job)->remaining_bytes = 0;
  planner_->MarkEvent();
  PromoteQueued();
  Replan(/*force=*/false);
  ServeResponse response = OkResponse();
  response.fields["state"] = "completed";
  response.fields["jct"] = FormatDouble((*job)->finish_time - (*job)->submit_time);
  return response;
}

ServeResponse ServiceState::Cancel(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("cancel: missing required argument 't'"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  const ServeJobState state = (*job)->state;
  if (state == ServeJobState::kCompleted || state == ServeJobState::kCancelled) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is already " + ServeJobStateName(state)));
  }
  const bool was_active = state == ServeJobState::kActive;
  (*job)->state = ServeJobState::kCancelled;
  (*job)->finish_time = now_;
  (*job)->running = false;
  if (was_active) {
    // A queued job was never in the scheduler's view; cancelling it changes
    // nothing the planner can see, so only active cancels mark an event.
    planner_->MarkEvent();
    PromoteQueued();
    Replan(/*force=*/false);
  }
  ServeResponse response = OkResponse();
  response.fields["state"] = "cancelled";
  response.fields["was"] = ServeJobStateName(state);
  return response;
}

ServeResponse ServiceState::Progress(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  Result<std::int64_t> remaining = request.GetInt("remaining");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  if (!remaining.ok()) {
    return ServeResponse::FromStatus(remaining.status());
  }
  if (!request.Has("t")) {
    return ServeResponse::FromStatus(
        Status::InvalidArgument("progress: missing required argument 't'"));
  }
  if (*remaining < 0) {
    return ServeResponse::FromStatus(Status::InvalidArgument("progress: remaining must be >= 0"));
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  if ((*job)->state != ServeJobState::kActive) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "job '" + *key + "' is " + ServeJobStateName((*job)->state) + ", not active"));
  }
  (*job)->remaining_bytes = *remaining;
  if (request.Has("effective")) {
    Result<std::int64_t> effective = request.GetInt("effective");
    if (!effective.ok()) {
      return ServeResponse::FromStatus(effective.status());
    }
    if (*effective < 0) {
      return ServeResponse::FromStatus(
          Status::InvalidArgument("progress: effective must be >= 0"));
    }
    (*job)->effective_cache = *effective;
  }
  planner_->MarkEvent();
  Replan(/*force=*/false);
  ServeResponse response = OkResponse();
  response.fields["state"] = "active";
  response.fields["running"] = (*job)->running ? "1" : "0";
  return response;
}

ServeResponse ServiceState::Query(const ServeRequest& request) {
  Result<std::string> key = request.GetString("key");
  if (!key.ok()) {
    return ServeResponse::FromStatus(key.status());
  }
  Result<ServeJob*> job = table_.Find(*key);
  if (!job.ok()) {
    return ServeResponse::FromStatus(job.status());
  }
  const ServeJob& j = **job;
  ServeResponse response = OkResponse();
  response.fields["state"] = ServeJobStateName(j.state);
  response.fields["job"] = std::to_string(j.spec.id);
  response.fields["gpus"] = std::to_string(j.spec.num_gpus);
  response.fields["running"] = j.running ? "1" : "0";
  response.fields["dataset"] = table_.catalog().Get(j.spec.dataset).name;
  response.fields["remaining"] = std::to_string(j.remaining_bytes);
  response.fields["submit-t"] = FormatDouble(j.submit_time);
  if (j.admit_time >= 0) {
    response.fields["admit-t"] = FormatDouble(j.admit_time);
  }
  if (j.first_start_time >= 0) {
    response.fields["start-t"] = FormatDouble(j.first_start_time);
  }
  if (j.finish_time >= 0) {
    response.fields["finish-t"] = FormatDouble(j.finish_time);
  }
  return response;
}

ServeResponse ServiceState::Plan(const ServeRequest& request) {
  (void)request;  // The clock already advanced from the optional t=.
  const AllocationPlan& plan = PlanNow();
  int running = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running) {
      ++running;
    }
  }
  ServeResponse response = OkResponse();
  response.fields["digest"] = FormatDigest(PlanDigest(plan));
  response.fields["running"] = std::to_string(running);
  response.fields["gpus-used"] = std::to_string(plan.GpusUsed());
  response.fields["cache-bytes"] = std::to_string(plan.DatasetCacheTotal());
  response.fields["cache-model"] = CacheModelKindName(plan.cache_model);
  response.fields["manages-remote-io"] = plan.manages_remote_io ? "1" : "0";
  return response;
}

ServeResponse ServiceState::Stats() {
  ServeResponse response = OkResponse();
  response.fields["now"] = FormatDouble(now_);
  response.fields["policy"] = planner_->policy_name();
  response.fields["jobs"] = std::to_string(table_.size());
  response.fields["active"] = std::to_string(table_.CountState(ServeJobState::kActive));
  response.fields["queued"] = std::to_string(table_.CountState(ServeJobState::kQueued));
  response.fields["completed"] = std::to_string(table_.CountState(ServeJobState::kCompleted));
  response.fields["cancelled"] = std::to_string(table_.CountState(ServeJobState::kCancelled));
  response.fields["gpu-demand"] = std::to_string(table_.ActiveGpuDemand());
  response.fields["total-gpus"] = std::to_string(config_.resources.total_gpus);
  response.fields["admitted"] = FormatU64(admission_->admitted());
  response.fields["adm-queued"] = FormatU64(admission_->queued());
  response.fields["rejected"] = FormatU64(admission_->rejected());
  response.fields["full-solves"] = FormatU64(planner_->full_solves());
  response.fields["reused-plans"] = FormatU64(planner_->reused_plans());
  response.fields["planning-ticks"] = FormatU64(planner_->planning_ticks());
  response.fields["dirty-pending"] = FormatU64(planner_->pending_events());
  response.fields["requests"] = FormatU64(requests_);
  response.fields["errors"] = FormatU64(errors_);
  response.fields["state-digest"] = FormatDigest(StateDigest());
  response.fields["last-rid"] = FormatU64(last_rid_);
  response.fields["duplicates"] = FormatU64(duplicates_);
  if (journal_ != nullptr) {
    response.fields["journal"] = journal_->path();
    response.fields["journal-bytes"] = FormatU64(journal_->size_bytes());
    response.fields["journal-sync"] = JournalSyncModeName(journal_->options().sync);
    response.fields["journal-records"] = FormatU64(journal_->appended_records());
    response.fields["journal-compactions"] = FormatU64(journal_->compactions());
    response.fields["recovered-checkpoint"] = recovery_.from_checkpoint ? "1" : "0";
    response.fields["recovered-requests"] = FormatU64(recovery_.replayed_requests);
    response.fields["recovered-errors"] = FormatU64(recovery_.replayed_errors);
    response.fields["recovered-dropped-bytes"] = FormatU64(recovery_.dropped_bytes);
  }
  return response;
}

ServeResponse ServiceState::ReloadPolicy(const ServeRequest& request) {
  Result<std::string> policy = request.GetString("policy");
  if (!policy.ok()) {
    return ServeResponse::FromStatus(policy.status());
  }
  SchedulerOptions options = config_.scheduler;
  if (request.Has("manage-remote-io")) {
    Result<std::int64_t> manage = request.GetInt("manage-remote-io");
    if (!manage.ok()) {
      return ServeResponse::FromStatus(manage.status());
    }
    options.manage_remote_io = *manage != 0;
  }
  if (const Status st = planner_->ReloadPolicy(*policy, options); !st.ok()) {
    return ServeResponse::FromStatus(st);
  }
  config_.policy = *policy;
  config_.scheduler = options;
  Replan(/*force=*/true);
  ServeResponse response = OkResponse();
  response.fields["policy"] = planner_->policy_name();
  return response;
}

ServeResponse ServiceState::Checkpoint() {
  if (journal_ == nullptr) {
    return ServeResponse::FromStatus(Status::FailedPrecondition(
        "no journal attached (start silodd with --journal=PATH)"));
  }
  const std::string text = CheckpointText();
  if (const Status st = journal_->Compact(text); !st.ok()) {
    return ServeResponse::FromStatus(st);
  }
  ++checkpoints_;
  ServeResponse response = OkResponse();
  response.fields["checkpoint-bytes"] = std::to_string(text.size());
  response.fields["journal-bytes"] = FormatU64(journal_->size_bytes());
  response.fields["compactions"] = FormatU64(journal_->compactions());
  return response;
}

std::uint64_t ServiceState::StateDigest() const {
  std::uint64_t h = kFnvOffset;
  MixString(&h, planner_->policy_name());
  MixU64(&h, config_.scheduler.manage_remote_io ? 1 : 0);
  MixDouble(&h, now_);
  MixU64(&h, last_rid_);
  MixU64(&h, admission_->admitted());
  MixU64(&h, admission_->queued());
  MixU64(&h, admission_->rejected());
  MixDouble(&h, planner_->last_plan_time());
  MixU64(&h, table_.catalog().size());
  for (const Dataset& dataset : table_.catalog().all()) {
    MixString(&h, dataset.name);
    MixU64(&h, static_cast<std::uint64_t>(dataset.size));
    MixU64(&h, static_cast<std::uint64_t>(dataset.block_size));
  }
  MixU64(&h, table_.size());
  for (const auto& job : table_.jobs()) {
    MixString(&h, job->key);
    MixString(&h, ServeJobStateName(job->state));
    MixU64(&h, static_cast<std::uint64_t>(job->spec.num_gpus));
    MixU64(&h, static_cast<std::uint64_t>(job->spec.dataset));
    MixDouble(&h, job->spec.ideal_io);
    MixU64(&h, static_cast<std::uint64_t>(job->spec.total_bytes));
    MixU64(&h, static_cast<std::uint64_t>(job->spec.step_data_size));
    MixString(&h, job->spec.model);
    MixDouble(&h, job->submit_time);
    MixDouble(&h, job->admit_time);
    MixDouble(&h, job->first_start_time);
    MixDouble(&h, job->finish_time);
    MixU64(&h, static_cast<std::uint64_t>(job->remaining_bytes));
    MixU64(&h, static_cast<std::uint64_t>(job->effective_cache));
    MixU64(&h, job->running ? 1 : 0);
    // Heterogeneity fields mix only when present so untyped/untenanted
    // digests stay byte-identical to earlier releases.
    if (job->gpu_type >= 0) {
      MixU64(&h, static_cast<std::uint64_t>(job->gpu_type) + 1);
    }
    if (!job->spec.tenant.empty()) {
      MixString(&h, job->spec.tenant);
    }
    for (const auto& [type_name, factor] : job->spec.speed_factors) {
      MixString(&h, type_name);
      MixDouble(&h, factor);
    }
  }
  return h;
}

std::string ServiceState::CheckpointText() const {
  std::string out = "silodd-checkpoint-v1\n";
  out += "cluster gpus=" + std::to_string(config_.resources.total_gpus) +
         " cache=" + std::to_string(config_.resources.total_cache) +
         " egress=" + FormatDouble(config_.resources.remote_io) +
         " servers=" + std::to_string(config_.resources.num_servers) + "\n";
  out += "policy name=" + EscapeToken(planner_->policy_name()) +
         " manage-remote-io=" + (config_.scheduler.manage_remote_io ? "1" : "0") + "\n";
  out += "clock now=" + FormatDouble(now_) + " last-rid=" + FormatU64(last_rid_) +
         " requests=" + FormatU64(requests_) + " errors=" + FormatU64(errors_) +
         " duplicates=" + FormatU64(duplicates_) + "\n";
  out += "admission admitted=" + FormatU64(admission_->admitted()) +
         " queued=" + FormatU64(admission_->queued()) +
         " rejected=" + FormatU64(admission_->rejected()) + "\n";
  out += "planner last-plan-t=" + FormatDouble(planner_->last_plan_time()) +
         " dirty-events=" + FormatU64(planner_->pending_events()) + "\n";
  for (const Dataset& dataset : table_.catalog().all()) {
    out += "dataset id=" + std::to_string(dataset.id) + " name=" + EscapeToken(dataset.name) +
           " size=" + std::to_string(dataset.size) +
           " block=" + std::to_string(dataset.block_size) + "\n";
  }
  for (const auto& job : table_.jobs()) {
    const ServeJob& j = *job;
    out += "job id=" + std::to_string(j.spec.id) + " key=" + EscapeToken(j.key) +
           " state=" + ServeJobStateName(j.state) + " gpus=" + std::to_string(j.spec.num_gpus) +
           " dataset=" + std::to_string(j.spec.dataset) +
           " ideal-io=" + FormatDouble(j.spec.ideal_io) +
           " total-bytes=" + std::to_string(j.spec.total_bytes) +
           " step-bytes=" + std::to_string(j.spec.step_data_size) +
           " model=" + EscapeToken(j.spec.model) + " submit-t=" + FormatDouble(j.submit_time) +
           " admit-t=" + FormatDouble(j.admit_time) +
           " start-t=" + FormatDouble(j.first_start_time) +
           " finish-t=" + FormatDouble(j.finish_time) +
           " remaining=" + std::to_string(j.remaining_bytes) +
           " effective=" + std::to_string(j.effective_cache) +
           " running=" + (j.running ? "1" : "0");
    // Optional heterogeneity tokens: emitted only when set, so checkpoints
    // from untyped fleets stay byte-identical to silodd-checkpoint-v1 files
    // written before GPU types existed (and old daemons' parsers, which
    // reject unknown keys, only see them when the feature is in use).
    if (j.gpu_type >= 0) {
      out += " gpu-type=" + std::to_string(j.gpu_type);
    }
    if (!j.spec.tenant.empty()) {
      out += " tenant=" + EscapeToken(j.spec.tenant);
    }
    if (!j.spec.speed_factors.empty()) {
      out += " speeds=";
      for (std::size_t i = 0; i < j.spec.speed_factors.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += EscapeToken(j.spec.speed_factors[i].first) + "=" +
               FormatDouble(j.spec.speed_factors[i].second);
      }
    }
    out += "\n";
  }
  out += "end\n";
  return out;
}

Status ServiceState::RestoreFromCheckpoint(const std::string& text, RecoveryInfo* recovery) {
  if (table_.size() != 0 || now_ != 0 || last_rid_ != 0) {
    return Status::FailedPrecondition("checkpoint restore requires a fresh service");
  }
  // A checkpoint that does not restore is a damaged journal, whatever the
  // line codec or the tables said about it.
  if (const Status st = ApplyCheckpoint(text, recovery); !st.ok()) {
    return Status::Internal("journal checkpoint: " + st.message());
  }
  return Status::Ok();
}

// Each line is "kind key=value ...", the wire protocol's request codec with
// the kind as the verb.
Status ServiceState::ApplyCheckpoint(const std::string& text, RecoveryInfo* recovery) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) {
    lines.push_back(line);
  }
  if (lines.empty() || lines[0] != "silodd-checkpoint-v1") {
    return Status::InvalidArgument("bad header (want silodd-checkpoint-v1)");
  }

  ServeRequest cluster{"cluster", {}}, policy{"policy", {}}, clock{"clock", {}},
      admission{"admission", {}}, planner{"planner", {}};
  std::vector<ServeRequest> dataset_lines, job_lines;
  bool saw_end = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) {
      continue;
    }
    Result<ServeRequest> decoded = ServeRequest::Decode(lines[i]);
    if (!decoded.ok()) {
      return decoded.status();
    }
    ServeRequest& line = *decoded;
    if (line.verb == "cluster") {
      cluster = std::move(line);
    } else if (line.verb == "policy") {
      policy = std::move(line);
    } else if (line.verb == "clock") {
      clock = std::move(line);
    } else if (line.verb == "admission") {
      admission = std::move(line);
    } else if (line.verb == "planner") {
      planner = std::move(line);
    } else if (line.verb == "dataset") {
      dataset_lines.push_back(std::move(line));
    } else if (line.verb == "job") {
      job_lines.push_back(std::move(line));
    } else if (line.verb == "end") {
      saw_end = true;
      break;
    } else {
      return Status::InvalidArgument("unknown line kind '" + line.verb + "'");
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("truncated (no 'end' line)");
  }

  // Cluster shape mismatches are warnings, not errors: the operator may have
  // legitimately resized the cluster between restarts, and the replayed
  // requests re-derive all scheduling decisions against the new flags.
  if (!cluster.args.empty() && recovery != nullptr) {
    Result<std::int64_t> gpus = cluster.GetInt("gpus");
    Result<std::int64_t> cache = cluster.GetInt("cache");
    Result<double> egress = cluster.GetDouble("egress");
    Result<std::int64_t> servers = cluster.GetInt("servers");
    if (gpus.ok() && *gpus != config_.resources.total_gpus) {
      recovery->warnings.push_back("checkpoint cluster had " + std::to_string(*gpus) +
                                   " GPUs, flags say " +
                                   std::to_string(config_.resources.total_gpus));
    }
    if (cache.ok() && *cache != config_.resources.total_cache) {
      recovery->warnings.push_back("checkpoint cluster had cache " + std::to_string(*cache) +
                                   " B, flags say " +
                                   std::to_string(config_.resources.total_cache) + " B");
    }
    if (egress.ok() && *egress != config_.resources.remote_io) {
      recovery->warnings.push_back("checkpoint cluster had egress " + FormatDouble(*egress) +
                                   " B/s, flags say " +
                                   FormatDouble(config_.resources.remote_io) + " B/s");
    }
    if (servers.ok() && *servers != config_.resources.num_servers) {
      recovery->warnings.push_back("checkpoint cluster had " + std::to_string(*servers) +
                                   " servers, flags say " +
                                   std::to_string(config_.resources.num_servers));
    }
  }

  // Policy first: a reload counts a planner event, and the planner line
  // restored below overwrites the count with the checkpointed one.
  {
    Result<std::string> name = policy.GetString("name");
    Result<std::int64_t> manage = policy.GetInt("manage-remote-io");
    if (!name.ok()) {
      return name.status();
    }
    if (!manage.ok()) {
      return manage.status();
    }
    SchedulerOptions options = config_.scheduler;
    options.manage_remote_io = *manage != 0;
    if (*name != planner_->policy_name() ||
        options.manage_remote_io != config_.scheduler.manage_remote_io) {
      if (const Status st = planner_->ReloadPolicy(*name, options); !st.ok()) {
        return Status::InvalidArgument("cannot restore policy '" + *name + "': " +
                                       st.message());
      }
      config_.policy = *name;
      config_.scheduler = options;
    }
  }

  {
    Result<double> now = clock.GetDouble("now");
    Result<std::uint64_t> last_rid = GetU64(clock, "last-rid");
    Result<std::uint64_t> requests = GetU64(clock, "requests");
    Result<std::uint64_t> errors = GetU64(clock, "errors");
    Result<std::uint64_t> duplicates = GetU64(clock, "duplicates");
    for (const Status* st :
         {!now.ok() ? &now.status() : nullptr, !last_rid.ok() ? &last_rid.status() : nullptr,
          !requests.ok() ? &requests.status() : nullptr,
          !errors.ok() ? &errors.status() : nullptr,
          !duplicates.ok() ? &duplicates.status() : nullptr}) {
      if (st != nullptr) {
        return *st;
      }
    }
    now_ = *now;
    last_rid_ = *last_rid;
    requests_ = *requests;
    errors_ = *errors;
    duplicates_ = *duplicates;
  }

  {
    Result<std::uint64_t> admitted = GetU64(admission, "admitted");
    Result<std::uint64_t> queued = GetU64(admission, "queued");
    Result<std::uint64_t> rejected = GetU64(admission, "rejected");
    if (!admitted.ok() || !queued.ok() || !rejected.ok()) {
      return !admitted.ok() ? admitted.status() : (!queued.ok() ? queued.status() : rejected.status());
    }
    admission_->RestoreCounters(*admitted, *queued, *rejected);
  }

  for (const ServeRequest& line : dataset_lines) {
    Result<std::int64_t> id = line.GetInt("id");
    Result<std::string> name = line.GetString("name");
    Result<std::int64_t> size = line.GetInt("size");
    Result<std::int64_t> block = line.GetInt("block");
    if (!id.ok() || !name.ok() || !size.ok() || !block.ok()) {
      return !id.ok() ? id.status()
                      : (!name.ok() ? name.status() : (!size.ok() ? size.status() : block.status()));
    }
    Result<DatasetId> interned = table_.InternDataset(*name, *size, *block);
    if (!interned.ok()) {
      return interned.status();
    }
    if (*interned != static_cast<DatasetId>(*id)) {
      return Status::InvalidArgument("dataset '" + *name + "' restored as id " +
                                     std::to_string(*interned) + ", checkpoint says " +
                                     std::to_string(*id));
    }
  }

  for (const ServeRequest& line : job_lines) {
    Result<std::int64_t> id = line.GetInt("id");
    Result<std::string> key = line.GetString("key");
    Result<std::string> state_name = line.GetString("state");
    Result<std::int64_t> gpus = line.GetInt("gpus");
    Result<std::int64_t> dataset = line.GetInt("dataset");
    Result<double> ideal_io = line.GetDouble("ideal-io");
    Result<std::int64_t> total_bytes = line.GetInt("total-bytes");
    Result<std::int64_t> step_bytes = line.GetInt("step-bytes");
    Result<std::string> model = line.GetString("model");
    Result<double> submit_t = line.GetDouble("submit-t");
    Result<double> admit_t = line.GetDouble("admit-t");
    Result<double> start_t = line.GetDouble("start-t");
    Result<double> finish_t = line.GetDouble("finish-t");
    Result<std::int64_t> remaining = line.GetInt("remaining");
    Result<std::int64_t> effective = line.GetInt("effective");
    Result<std::int64_t> running = line.GetInt("running");
    for (const Status* st :
         {!id.ok() ? &id.status() : nullptr, !key.ok() ? &key.status() : nullptr,
          !state_name.ok() ? &state_name.status() : nullptr,
          !gpus.ok() ? &gpus.status() : nullptr, !dataset.ok() ? &dataset.status() : nullptr,
          !ideal_io.ok() ? &ideal_io.status() : nullptr,
          !total_bytes.ok() ? &total_bytes.status() : nullptr,
          !step_bytes.ok() ? &step_bytes.status() : nullptr,
          !model.ok() ? &model.status() : nullptr, !submit_t.ok() ? &submit_t.status() : nullptr,
          !admit_t.ok() ? &admit_t.status() : nullptr,
          !start_t.ok() ? &start_t.status() : nullptr,
          !finish_t.ok() ? &finish_t.status() : nullptr,
          !remaining.ok() ? &remaining.status() : nullptr,
          !effective.ok() ? &effective.status() : nullptr,
          !running.ok() ? &running.status() : nullptr}) {
      if (st != nullptr) {
        return *st;
      }
    }
    Result<ServeJobState> state = ServeJobStateFromName(*state_name);
    if (!state.ok()) {
      return state.status();
    }
    JobSpec spec;
    spec.name = *key;
    spec.model = *model;
    spec.num_gpus = static_cast<int>(*gpus);
    spec.dataset = static_cast<DatasetId>(*dataset);
    spec.ideal_io = *ideal_io;
    spec.total_bytes = *total_bytes;
    spec.step_data_size = *step_bytes;
    // Optional heterogeneity tokens (absent in checkpoints from untyped runs).
    if (line.Has("tenant")) {
      spec.tenant = line.args.at("tenant");
    }
    if (line.Has("speeds")) {
      const std::string& speeds = line.args.at("speeds");
      std::size_t pos = 0;
      while (pos < speeds.size()) {
        std::size_t comma = speeds.find(',', pos);
        if (comma == std::string::npos) {
          comma = speeds.size();
        }
        const std::string pair = speeds.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
          return Status::InvalidArgument("malformed job.speeds entry '" + pair + "'");
        }
        char* end = nullptr;
        const double factor = std::strtod(pair.c_str() + eq + 1, &end);
        if (end == pair.c_str() + eq + 1 || *end != '\0' || !(factor > 0)) {
          return Status::InvalidArgument("bad job.speeds factor in '" + pair + "'");
        }
        spec.speed_factors.emplace_back(pair.substr(0, eq), factor);
      }
    }
    Result<ServeJob*> job = table_.Add(*key, std::move(spec), *submit_t);
    if (!job.ok()) {
      return job.status();
    }
    if ((*job)->spec.id != static_cast<JobId>(*id)) {
      return Status::InvalidArgument("job '" + *key + "' restored as id " +
                                     std::to_string((*job)->spec.id) + ", checkpoint says " +
                                     std::to_string(*id));
    }
    (*job)->state = *state;
    (*job)->admit_time = *admit_t;
    (*job)->first_start_time = *start_t;
    (*job)->finish_time = *finish_t;
    (*job)->remaining_bytes = *remaining;
    (*job)->effective_cache = *effective;
    (*job)->running = *running != 0;
    if (line.Has("gpu-type")) {
      Result<std::int64_t> gpu_type = line.GetInt("gpu-type");
      if (!gpu_type.ok()) {
        return gpu_type.status();
      }
      (*job)->gpu_type = static_cast<int>(*gpu_type);
    }
  }

  // Planner last: the construction / policy restore counted events of its
  // own, and the checkpointed count replaces them so epoch coalescing (Due)
  // fires at the same virtual instants it would have.  Checkpoints written
  // before the planner kept only a count also carry dirty-all, dirty-reason,
  // dirty-jobs and dirty-datasets; the count alone decides when to re-solve,
  // so those keys are ignored.
  //
  // The cached plan is not in the checkpoint.  With no events pending, the
  // restored jobs are the snapshot last solved, now holding the GPUs that
  // solve gave them; running jobs are never preempted or migrated, so
  // solving it again at last-plan-t gives the same plan (for every stateless
  // scheduler; Quiver's profiler draws new noise per call).  With events
  // pending, the next `plan` re-solves anyway and all a reused plan decides
  // until then (Replan) is which active jobs run and on which GPU type —
  // exactly what the job lines carry.  Every admission is followed by a
  // solve, so events pending with nothing ever admitted mean the initial
  // solve is still owed.
  {
    Result<double> last_plan_t = planner.GetDouble("last-plan-t");
    Result<std::uint64_t> dirty_events = GetU64(planner, "dirty-events");
    if (!last_plan_t.ok() || !dirty_events.ok()) {
      return !last_plan_t.ok() ? last_plan_t.status() : dirty_events.status();
    }
    AllocationPlan plan;
    if (*dirty_events == 0) {
      Snapshot last_solved = MakeSnapshot();
      last_solved.now = *last_plan_t;
      plan = planner_->SolveUncounted(last_solved);
    } else {
      for (const auto& job : table_.jobs()) {
        if (job->state == ServeJobState::kActive && job->running) {
          JobAllocation& alloc = plan.jobs[job->spec.id];
          alloc.running = true;
          alloc.gpus = job->spec.num_gpus;
          alloc.gpu_type = job->gpu_type;
        }
      }
    }
    const bool planned = *dirty_events == 0 || admission_->admitted() > 0;
    planner_->RestorePlanningState(*last_plan_t, *dirty_events, planned ? &plan : nullptr);
  }
  return Status::Ok();
}

Status ServiceState::SyncJournal() {
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  return journal_->Sync();
}

RunReport ServiceState::Report() const {
  RunReport report;
  report.label = planner_->policy_name();
  report.engine = "serve";
  report.jobs = static_cast<int>(table_.size());
  // Fold the table into JobResults so the summary (and the per-tenant /
  // per-GPU-type breakdowns) goes through the same grouping as the engines'.
  std::vector<JobResult> results;
  results.reserve(table_.size());
  Seconds last_finish = 0;
  for (const auto& job : table_.jobs()) {
    if (job->state != ServeJobState::kCompleted) {
      ++report.unfinished_jobs;
      continue;
    }
    JobResult r;
    r.id = job->spec.id;
    r.submit_time = job->submit_time;
    r.first_start_time = job->first_start_time;
    r.finish_time = job->finish_time;
    r.tenant = job->spec.tenant;
    if (job->gpu_type >= 0 && job->gpu_type < covered_topology_.num_gpu_types()) {
      r.gpu_type = covered_topology_.gpu_types()[static_cast<std::size_t>(job->gpu_type)].name;
    }
    results.push_back(std::move(r));
    if (job->finish_time > last_finish) {
      last_finish = job->finish_time;
    }
  }
  std::vector<JctSample> samples;
  samples.reserve(results.size());
  for (const JobResult& r : results) {
    JctSample s;
    s.jct_min = r.Jct() / 60.0;
    s.queue_min = r.QueueDelay() / 60.0;
    samples.push_back(s);
  }
  FillJctSummary(samples, &report.jct);
  report.tenants = GroupJctSummaries(
      results, +[](const JobResult& j) -> const std::string& { return j.tenant; });
  report.gpu_types = GroupJctSummaries(
      results, +[](const JobResult& j) -> const std::string& { return j.gpu_type; });
  report.makespan_min = last_finish / 60.0;
  report.AddExtra("policy", planner_->policy_name());
  report.AddExtra("full_solves", static_cast<double>(planner_->full_solves()));
  report.AddExtra("reused_plans", static_cast<double>(planner_->reused_plans()));
  report.AddExtra("admitted", static_cast<double>(admission_->admitted()));
  report.AddExtra("rejected", static_cast<double>(admission_->rejected()));
  return report;
}

}  // namespace silod
