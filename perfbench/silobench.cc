// silobench: the repository benchmark program (see README.md beside it).
//
//   silobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Drives the public entry points with generated traces and times them from
// outside: the engines through RunExperimentWith, the scheduler through a
// timing Scheduler decorator around the registry-built policy, and silodd
// through an in-process ServiceState::Handle.  A run makes rounds over the
// workload's traces until --seconds have passed (at least kMinRounds).  Every
// time is scaled to reference-host time by the calibration kernel timed
// around each trace run (host_speed.h).  A trace's times are the means over
// its repeats; the program is deterministic, so its call latencies are taken
// call by call as their minimum over repeats.  A run checks every output, prints
// one table row per metric and, as the last line of stdout, one JSON object.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
// traced rounds and reports the per-layer metrics, writing the first traced
// round's spans to <work-dir>/spans-*.jsonl.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/bench_stats.h"
#include "perfbench/host_speed.h"
#include "src/cache/analytic.h"
#include "src/common/rng.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/serve/journal.h"
#include "src/serve/service.h"
#include "src/sim/serve_replay.h"
#include "src/workload/trace_gen.h"

namespace silod::perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;  // Of each kind, in a traced run.
constexpr std::size_t kRssChildren = 4;  // Peak-RSS runs at once.
// Peak RSS is measured on this many times the workload's timed traces: a
// trace's peak varies by tens of percent with its datasets and load.
constexpr int kRssTraceFactor = 3;

// --- Workload recipes ---------------------------------------------------------

struct Workload {
  const char* name;
  const char* policy;
  EngineKind engine;
  bool serve;  // Replays the batch run's history through ServiceState.
  SimConfig (*cluster)();
  TraceOptions (*recipe)(std::uint64_t seed);
  int traces;  // Independent traces per round.
  int jobs;    // Jobs per trace.
  double gpu_speed;  // Multiplies every job's f* (the Fig. 14b knob).
  double block_mb;
  double total_tb;  // > 0: every trace's jobs are scaled to read this much.
};

TraceOptions Recipe400(std::uint64_t seed) { return bench::Trace400Options(0.0, 1.0, seed); }
TraceOptions Recipe96(std::uint64_t seed) { return bench::Trace96Options(seed); }

// The clusters and trace recipes are the paper's, from bench/bench_util.h;
// a workload sets only the job count, GPU speed and block size on top.
// Sizes are chosen so that one round over a workload's traces takes a few
// seconds and the totals over its traces vary little from seed to seed
// (README.md).
//   - flow-gavel400 runs at GPU speed 4, the top of Fig. 14b's range, so that
//     storage is contended and about a third of the Gavel calls bisect on
//     every seed with 160 jobs.
//   - flow-alluxio400 covers twenty 100-job traces: the engine time of ten
//     200-job traces still differed by 18% from seed to seed.
//   - fine-96 uses 256 MB blocks, a quarter of the default step count per
//     job, so that a round can cover ten traces.  Each trace is scaled to
//     300 TB of reads (the median over seeds is 310 TB): a trace's step
//     count otherwise varies by 25% from seed to seed with its largest jobs.
const Workload kWorkloads[] = {
    {.name = "flow-gavel400", .policy = "gavel+silod", .engine = EngineKind::kFlow,
     .serve = false, .cluster = bench::Cluster400Config, .recipe = Recipe400, .traces = 8,
     .jobs = 160, .gpu_speed = 4, .block_mb = 64, .total_tb = 0},
    {.name = "flow-alluxio400", .policy = "fifo+alluxio", .engine = EngineKind::kFlow,
     .serve = false, .cluster = bench::Cluster400Config, .recipe = Recipe400, .traces = 20,
     .jobs = 100, .gpu_speed = 1, .block_mb = 64, .total_tb = 0},
    {.name = "fine-96", .policy = "fifo+silod", .engine = EngineKind::kFine, .serve = false,
     .cluster = bench::Cluster96Config, .recipe = Recipe96, .traces = 10, .jobs = 80,
     .gpu_speed = 1, .block_mb = 256, .total_tb = 300},
    {.name = "serve-sjf", .policy = "sjf+silod", .engine = EngineKind::kFlow, .serve = true,
     .cluster = bench::Cluster400Config, .recipe = Recipe400, .traces = 10, .jobs = 200,
     .gpu_speed = 1, .block_mb = 64, .total_tb = 0},
};

SimConfig MakeCluster(const Workload& w, std::uint64_t seed) {
  SimConfig config = w.cluster();
  config.seed = seed;
  return config;
}

Trace MakeTrace(const Workload& w, std::uint64_t seed) {
  TraceOptions options = w.recipe(seed);
  options.num_jobs = w.jobs;
  options.gpu_speed_scale = w.gpu_speed;
  options.block_size = MB(w.block_mb);
  Trace trace = TraceGenerator(options).Generate();
  if (w.total_tb > 0) {
    double total = 0;
    for (const JobSpec& job : trace.jobs) {
      total += static_cast<double>(job.total_bytes);
    }
    const double scale = static_cast<double>(TB(w.total_tb)) / total;
    for (JobSpec& job : trace.jobs) {
      job.total_bytes = static_cast<Bytes>(static_cast<double>(job.total_bytes) * scale);
    }
  }
  return trace;
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Sample count or definition, table only.
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  // Adds <prefix>_p50_<unit> and <prefix>_p99_<unit> over `samples`, one
  // per call, each the call's minimum over repeats.  Fewer than 1000 samples
  // cannot support a p99 (ten must lie beyond it); the highest percentile
  // they do support is used, and the table says so.  Adds nothing when there
  // are no samples.
  void AddLatency(const std::string& prefix, const std::vector<double>& samples,
                  const std::string& unit, int repeats) {
    if (samples.empty()) {
      return;
    }
    const double pct = std::min(99.0, TailPercentile(samples.size()));
    std::string note = "n=" + std::to_string(samples.size()) + ", each the min of " +
                       std::to_string(repeats) + " repeats";
    if (pct < 99) {
      char text[32];
      std::snprintf(text, sizeof(text), "; p99 is p%g", pct > 0 ? pct : 50);
      note += text;
    }
    Add(prefix + "_p50_" + unit, Median(samples), unit, note);
    Add(prefix + "_p99_" + unit, Percentile(samples, pct > 0 ? pct : 50), unit, note);
  }
  bool Has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }
  void Fail(const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void Print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double value = std::isfinite(m.value) ? m.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// Every per-layer metric of BENCHMARK.json.  A traced run reports all of
// them; the layers a workload does not exercise, or that cannot be timed
// from outside the program (the scheduler inside silodd), read 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"workload.gen_s", "s"},          {"sched.calls", "count"},
    {"sched.busy_s", "s"},            {"sched.share", "ratio"},
    {"sched.call_p50_us", "us"},      {"sched.call_p99_us", "us"},
    {"sched.jobs_per_call_p50", "count"}, {"sim.self_s", "s"},
    {"cache.lru_probe_p50_us", "us"}, {"cache.lru_probe_p99_us", "us"},
    {"sim.steps", "count"},           {"sim.miss_completions", "count"},
    {"sim.hit_completions", "count"}, {"sim.reschedules", "count"},
    {"sim.flow_recomputes", "count"}, {"sim.flow_rate_changes", "count"},
    {"sim.ns_per_step", "ns"},        {"sim.hit_ratio", "ratio"},
    {"sim.rate_change_ratio", "ratio"}, {"serve.write_p50_us", "us"},
    {"serve.write_p99_us", "us"},     {"serve.read_p50_us", "us"},
    {"serve.read_p99_us", "us"},      {"serve.submit_p50_us", "us"},
    {"serve.submit_p99_us", "us"},    {"serve.complete_p50_us", "us"},
    {"serve.complete_p99_us", "us"},  {"serve.progress_p50_us", "us"},
    {"serve.progress_p99_us", "us"},  {"serve.query_p50_us", "us"},
    {"serve.query_p99_us", "us"},     {"serve.full_solves", "count"},
    {"serve.delta_solves", "count"},  {"serve.reused_plans", "count"},
    {"serve.solves_per_write", "ratio"}, {"serve.rescore_ratio", "ratio"},
    {"journal.records", "count"},     {"journal.bytes", "bytes"},
    {"journal.records_per_write", "ratio"}, {"metrics.report_ms", "ms"},
    {"trace.overhead_s", "s"},
};

void AddUnmeasuredLayers(Report* report) {
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!report->Has(name)) {
      report->Add(name, 0, unit, "not measured on this workload");
    }
  }
}

double ToSec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::string FormatExact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Writes `spans` as one JSON object per line.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}\n";
  }
}

// Appends one trace run's spans to `kept`, re-basing their parent indices.
void Keep(std::vector<Span>* kept, const std::vector<Span>& spans) {
  const int base = static_cast<int>(kept->size());
  for (Span s : spans) {
    s.parent = s.parent >= 0 ? s.parent + base : -1;
    kept->push_back(std::move(s));
  }
}

// Span calls that do nothing on an untraced run (log == nullptr).
int Begin(SpanLog* log, std::string name) { return log ? log->Begin(std::move(name)) : -1; }
void End(SpanLog* log, int span) {
  if (log) {
    log->End(span);
  }
}

// --- The sched layer, timed from outside ------------------------------------------

// Wraps the registry-built policy.  Every call is timed.  Then, as the
// benchmark's own work that own_ns() lets the caller take out of wall time:
// the plan is validated against the snapshot's resources and, when the plan
// asks for the shared-LRU cache model, the plan's running jobs are fed to
// SharedLruModel (the cache probe).
class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::shared_ptr<Scheduler> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  AllocationPlan Schedule(const Snapshot& snapshot) override {
    const int span = Begin(spans_, "sched.schedule");
    const std::int64_t t0 = NowNs();
    AllocationPlan plan = inner_->Schedule(snapshot);
    const std::int64_t t1 = NowNs();
    End(spans_, span);
    call_us_.push_back(Micros(t1 - t0));
    jobs_per_call_.push_back(static_cast<double>(snapshot.jobs.size()));

    const std::int64_t own0 = NowNs();
    const int check = Begin(spans_, "bench.check");
    const int validate = Begin(spans_, "plan.validate");
    const Status valid = plan.Validate(snapshot.resources);
    End(spans_, validate);
    if (!valid.ok()) {
      ++invalid_plans_;
      first_invalid_ = valid.ToString();
    }
    if (plan.cache_model == CacheModelKind::kSharedLru) {
      Probe(snapshot, plan);
    }
    End(spans_, check);
    own_ns_ += NowNs() - own0;
    return plan;
  }

  std::string name() const override { return inner_->name(); }

  const std::vector<double>& call_us() const { return call_us_; }
  const std::vector<double>& probe_us() const { return probe_us_; }
  const std::vector<double>& jobs_per_call() const { return jobs_per_call_; }
  std::uint64_t invalid_plans() const { return invalid_plans_; }
  std::uint64_t bad_probes() const { return bad_probes_; }
  const std::string& first_invalid() const { return first_invalid_; }
  std::int64_t own_ns() const { return own_ns_; }

 private:
  // The first fixed-point input the flow engine builds for a shared-LRU
  // pool: each running job's ideal IO at its placed speed, its dataset size
  // and the cluster cache.  One SharedLruModel call is timed; the engine
  // iterates it kSharedLruIterations times, with cold jobs masked.
  void Probe(const Snapshot& snapshot, const AllocationPlan& plan) {
    std::vector<BytesPerSec> rates;
    std::vector<Bytes> sizes;
    for (const JobView& view : snapshot.jobs) {
      if (plan.IsRunning(view.spec->id)) {
        rates.push_back(view.spec->ideal_io * plan.Get(view.spec->id).speed);
        sizes.push_back(snapshot.catalog->Get(view.spec->dataset).size);
      }
    }
    if (rates.empty()) {
      return;
    }
    const int span = Begin(spans_, "cache.lru_probe");
    const std::int64_t t0 = NowNs();
    const SharedLruResult lru = SharedLruModel(rates, sizes, snapshot.resources.total_cache);
    const std::int64_t t1 = NowNs();
    End(spans_, span);
    probe_us_.push_back(Micros(t1 - t0));
    for (const double hit : lru.hit_ratio) {
      if (!(hit >= 0 && hit <= 1)) {
        ++bad_probes_;
        break;
      }
    }
  }

  std::shared_ptr<Scheduler> inner_;
  SpanLog* spans_;
  std::vector<double> call_us_;
  std::vector<double> probe_us_;
  std::vector<double> jobs_per_call_;
  std::uint64_t invalid_plans_ = 0;
  std::uint64_t bad_probes_ = 0;
  std::string first_invalid_;
  std::int64_t own_ns_ = 0;
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir = ".";
};

// The trace seeds of one run: the workload's `traces` sub-seeds drawn from
// --seed, so a run covers several independent clusters and its totals vary
// less from seed to seed than a single trace does.
std::vector<std::uint64_t> TraceSeeds(std::uint64_t seed, int traces) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < traces; ++k) {
    seeds.push_back(rng.NextU64());
  }
  return seeds;
}

// Runs rounds of `run_trace(k, traced)` over traces k = 0..traces-1 until
// --seconds have passed and the minimum number of rounds has run; the last
// round stops at the first trace that ends past the deadline.  Round after
// round, each trace's repeats spread over the whole run.  A traced run
// alternates untraced and traced rounds, so both sides see the same machine
// conditions.
template <typename RunTrace>
void RunRounds(const Args& args, std::size_t traces, RunTrace run_trace) {
  const std::int64_t start = NowNs();
  const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
  int untraced = 0;
  int traced = 0;
  for (int index = 0;; ++index) {
    const bool trace = args.trace && index % 2 == 1;
    const bool enough = untraced >= min_rounds && (!args.trace || traced >= min_rounds);
    for (std::size_t k = 0; k < traces; ++k) {
      run_trace(k, trace);
      if (enough && ToSec(NowNs() - start) >= args.seconds) {
        return;
      }
    }
    (trace ? traced : untraced) += 1;
  }
}

// The peak RSS of one run of each trace, in MB, averaged over the traces.
// Each run happens in a child forked before the timed rounds, so every child
// starts from the same small resident set and one large trace does not set
// the figure for all.  Up to kRssChildren children run at once; nothing is
// timed meanwhile.  A child's output is discarded; the timed rounds repeat
// its checks.  0 when a child fails.
template <typename RunTrace>
double MeanPeakRssMb(std::size_t traces, RunTrace run_trace) {
  struct Child {
    pid_t pid;
    int fd;
  };
  std::vector<Child> running;
  double sum = 0;
  bool ok = true;
  // Waits for the oldest child and adds its peak.
  const auto reap = [&] {
    const Child child = running.front();
    running.erase(running.begin());
    long kb = 0;
    const ssize_t n = read(child.fd, &kb, sizeof(kb));
    close(child.fd);
    int status = 0;
    waitpid(child.pid, &status, 0);
    ok = ok && n == static_cast<ssize_t>(sizeof(kb)) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
    sum += static_cast<double>(kb) / 1024.0;  // ru_maxrss is in KiB.
  };
  std::fflush(stdout);
  for (std::size_t k = 0; k < traces && ok; ++k) {
    if (running.size() == kRssChildren) {
      reap();
    }
    int fds[2];
    if (pipe(fds) != 0) {
      ok = false;
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      close(STDOUT_FILENO);
      run_trace(k, false);
      struct rusage usage;
      getrusage(RUSAGE_SELF, &usage);
      const long kb = usage.ru_maxrss;
      const ssize_t n = write(fds[1], &kb, sizeof(kb));
      _exit(n == static_cast<ssize_t>(sizeof(kb)) ? 0 : 1);
    }
    close(fds[1]);
    if (pid < 0) {
      close(fds[0]);
      ok = false;
      break;
    }
    running.push_back({pid, fds[0]});
  }
  while (!running.empty()) {
    reap();
  }
  return ok ? sum / static_cast<double>(traces) : 0.0;
}

// One table line on the host-speed scaling of the run.
void PrintScales(const std::vector<double>& scales) {
  std::printf("times are reference-host times: SpeedScale over %zu trace runs was "
              "%.3f (min) %.3f (median) %.3f (max)\n",
              scales.size(), *std::min_element(scales.begin(), scales.end()), Median(scales),
              *std::max_element(scales.begin(), scales.end()));
}

// Sum over traces of a per-trace figure.
template <typename T>
double Sum(const std::vector<T>& traces, double T::*field) {
  double sum = 0;
  for (const T& t : traces) {
    sum += t.*field;
  }
  return sum;
}

// All traces' per-call samples, pooled.
template <typename T>
std::vector<double> Pool(const std::vector<T>& traces, RepeatMin T::*field) {
  std::vector<double> out;
  for (const T& t : traces) {
    const std::vector<double>& values = (t.*field).values;
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

// The fewest repeats any trace had.
template <typename T>
int Repeats(const std::vector<T>& traces) {
  int fewest = std::numeric_limits<int>::max();
  for (const T& t : traces) {
    fewest = std::min(fewest, t.repeats);
  }
  return traces.empty() ? 0 : fewest;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// --- Engine workloads ---------------------------------------------------------

// One run of one trace.
struct EngineSample {
  double setup_s = 0;
  double gen_s = 0;
  double wall_s = 0;
  double busy_s = 0;  // Traced runs: sched.schedule time.
  double report_ms = 0;
  std::vector<double> call_us;
  std::vector<double> probe_us;

  // Turns every time into reference-host time (host_speed.h).
  void Scale(double factor) {
    for (double* t : {&setup_s, &gen_s, &wall_s, &busy_s, &report_ms}) {
      *t *= factor;
    }
    for (std::vector<double>* series : {&call_us, &probe_us}) {
      for (double& t : *series) {
        t *= factor;
      }
    }
  }
};

// One trace's figures over its repeats of one kind (untraced or traced):
// set-up the median of its reference-host times, every other time their
// mean, and each call's latency its minimum.
struct EngineTimes {
  int repeats = 0;
  std::vector<double> setups;
  double setup_s = 0;
  double gen_s = 0;
  double wall_s = 0;
  double busy_s = 0;
  double report_ms = 0;
  RepeatMin call_us;
  RepeatMin probe_us;

  // False when the run made another number of calls than earlier repeats.
  bool Fold(const EngineSample& s) {
    ++repeats;
    setups.push_back(s.setup_s);
    setup_s = Median(setups);
    for (auto [mean, x] : {std::pair{&gen_s, s.gen_s}, {&wall_s, s.wall_s},
                           {&busy_s, s.busy_s}, {&report_ms, s.report_ms}}) {
      *mean += (x - *mean) / repeats;
    }
    return call_us.Fold(s.call_us) && probe_us.Fold(s.probe_us);
  }
};

// One trace's deterministic outputs, from its first run.
struct EngineOutputs {
  bool seen = false;
  double avg_jct_min = 0;
  double makespan = 0;
  double calls = 0;
  std::vector<double> jobs_per_call;
  EngineStepCounters steps;
};

int RunEngine(const Args& args) {
  const Workload& w = *args.workload;
  // The first w.traces seeds are timed; peak RSS covers all of them.
  std::vector<std::uint64_t> seeds = TraceSeeds(args.seed, w.traces * kRssTraceFactor);
  Report report;
  std::vector<EngineTimes> plain(seeds.size());
  std::vector<EngineTimes> traced(seeds.size());
  std::vector<EngineOutputs> outputs(seeds.size());
  std::vector<Span> kept_spans;  // The first traced round's.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> scales;  // Every trace run's SpeedScale.

  const auto run_trace = [&](std::size_t k, bool trace) {
    EngineSample s;
    const double kernel_before = KernelSeconds();
    const std::int64_t t0 = NowNs();
    const Trace jobs = MakeTrace(w, seeds[k]);
    s.gen_s = ToSec(NowNs() - t0);
    Result<std::shared_ptr<Scheduler>> made = MakeSchedulerByName(w.policy);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      std::exit(2);
    }
    SpanLog spans;
    auto timed = std::make_shared<TimedScheduler>(*made, trace ? &spans : nullptr);
    ExperimentConfig config;
    config.policy = w.policy;
    config.sim = MakeCluster(w, seeds[k]);
    config.engine = w.engine;
    s.setup_s = ToSec(NowNs() - t0);

    const int run_span = Begin(trace ? &spans : nullptr, "engine.run");
    const std::int64_t run0 = NowNs();
    SimResult result = RunExperimentWith(jobs, timed, config);
    const std::int64_t run_ns = NowNs() - run0;
    End(trace ? &spans : nullptr, run_span);
    s.wall_s = ToSec(run_ns - timed->own_ns());

    const std::int64_t m0 = NowNs();
    const RunReport run_report =
        MakeRunReport(w.policy, w.engine == EngineKind::kFine ? "fine" : "flow", result);
    s.report_ms = static_cast<double>(NowNs() - m0) * 1e-6;
    const double kernel_after = KernelSeconds();

    // Checks: every job finishes, decisions repeat exactly, plans are valid.
    attempted += jobs.jobs.size();
    failed += static_cast<std::uint64_t>(run_report.unfinished_jobs);
    if (run_report.unfinished_jobs != 0 || result.jobs.size() != jobs.jobs.size()) {
      report.Fail(std::to_string(run_report.unfinished_jobs) + " job(s) unfinished");
    }
    EngineOutputs& out = outputs[k];
    if (!out.seen) {
      out = {.seen = true, .avg_jct_min = result.AvgJctMinutes(), .makespan = result.makespan,
             .calls = static_cast<double>(timed->call_us().size()),
             .jobs_per_call = timed->jobs_per_call(), .steps = result.steps};
    } else if (result.AvgJctMinutes() != out.avg_jct_min || result.makespan != out.makespan) {
      report.Fail("avg JCT / makespan of trace " + std::to_string(k) +
                  " differ between repeats");
    }
    if (timed->invalid_plans() != 0) {
      report.Fail(std::to_string(timed->invalid_plans()) +
                  " invalid plan(s): " + timed->first_invalid());
    }
    if (timed->bad_probes() != 0) {
      report.Fail("shared-LRU probe returned a hit ratio outside [0, 1]");
    }

    s.call_us = timed->call_us();
    s.probe_us = timed->probe_us();
    if (trace) {
      const std::map<std::string, double> self = SelfSecondsByName(spans.spans());
      s.busy_s = self.count("sched.schedule") ? self.at("sched.schedule") : 0.0;
      if (traced[k].repeats == 0) {
        Keep(&kept_spans, spans.spans());
      }
    }
    scales.push_back(SpeedScale(kernel_before, kernel_after));
    s.Scale(scales.back());
    if (!(trace ? traced : plain)[k].Fold(s)) {
      report.Fail("trace " + std::to_string(k) + " made another number of calls on a repeat");
    }
  };
  const double peak_rss_mb = args.trace ? 0.0 : MeanPeakRssMb(seeds.size(), run_trace);
  seeds.resize(w.traces);
  plain.resize(seeds.size());
  traced.resize(seeds.size());
  outputs.resize(seeds.size());
  RunRounds(args, seeds.size(), run_trace);

  EngineStepCounters steps;
  std::vector<double> jobs_per_call;
  std::vector<double> jct;
  for (const EngineOutputs& o : outputs) {
    steps.steps += o.steps.steps;
    steps.miss_completions += o.steps.miss_completions;
    steps.hit_completions += o.steps.hit_completions;
    steps.reschedules += o.steps.reschedules;
    steps.flow_recomputes += o.steps.flow_recomputes;
    steps.flow_rate_changes += o.steps.flow_rate_changes;
    jobs_per_call.insert(jobs_per_call.end(), o.jobs_per_call.begin(), o.jobs_per_call.end());
    jct.push_back(o.avg_jct_min);
  }
  const double calls = Sum(outputs, &EngineOutputs::calls);
  const double events = w.engine == EngineKind::kFine ? static_cast<double>(steps.steps) : calls;
  const std::string per_round = std::to_string(seeds.size()) + " traces x " +
                                std::to_string(w.jobs) + " jobs; per-trace figures of " +
                                std::to_string(Repeats(plain)) + " repeats, summed";
  if (!args.trace) {
    const double wall_s = Sum(plain, &EngineTimes::wall_s);
    report.Add("setup_s", Sum(plain, &EngineTimes::setup_s), "s", per_round);
    report.Add("wall_s", wall_s, "s", per_round);
    report.Add("events_per_s", events / wall_s, "1/s",
               w.engine == EngineKind::kFine ? "engine steps" : "scheduler invocations");
    if (peak_rss_mb == 0) {
      report.Fail("a peak-RSS child run failed");
    }
    report.Add("peak_rss_mb", peak_rss_mb, "MB", "one trace per forked child, mean over traces");
    report.Add("avg_jct_min", Mean(jct), "min", "simulated, mean over traces");
    report.Add("ok_ratio", 1.0 - FailRatio(attempted, failed), "ratio", "finished jobs / jobs");
    report.Add("requests_per_s", calls / wall_s, "1/s", "scheduler invocations");
  } else {
    double gen_s = 0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      gen_s += plain[k].gen_s;
    }
    const double traced_wall_s = Sum(traced, &EngineTimes::wall_s);
    const double busy_s = Sum(traced, &EngineTimes::busy_s);
    const double self_s = traced_wall_s - busy_s;
    report.Add("workload.gen_s", gen_s, "s", per_round);
    report.Add("sched.calls", calls, "count", "per round");
    report.Add("sched.busy_s", busy_s, "s", "sched.schedule time");
    report.Add("sched.share", busy_s / traced_wall_s, "ratio", "sched.busy_s / traced wall_s");
    report.AddLatency("sched.call", Pool(traced, &EngineTimes::call_us), "us", Repeats(traced));
    report.Add("sched.jobs_per_call_p50", Median(jobs_per_call), "count");
    report.Add("sim.self_s", self_s, "s", "traced wall_s - sched.busy_s");
    report.AddLatency("cache.lru_probe", Pool(traced, &EngineTimes::probe_us), "us",
                      Repeats(traced));
    if (w.engine == EngineKind::kFine) {  // SimResult::steps counts fine-engine steps only.
      const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
      report.Add("sim.steps", count(steps.steps), "count");
      report.Add("sim.miss_completions", count(steps.miss_completions), "count");
      report.Add("sim.hit_completions", count(steps.hit_completions), "count");
      report.Add("sim.reschedules", count(steps.reschedules), "count");
      report.Add("sim.flow_recomputes", count(steps.flow_recomputes), "count");
      report.Add("sim.flow_rate_changes", count(steps.flow_rate_changes), "count");
      report.Add("sim.ns_per_step", self_s * 1e9 / count(steps.steps), "ns",
                 "sim.self_s / sim.steps");
      report.Add("sim.hit_ratio",
                 count(steps.hit_completions) /
                     count(steps.hit_completions + steps.miss_completions),
                 "ratio", "hit / (hit + miss) completions");
      report.Add("sim.rate_change_ratio",
                 count(steps.flow_rate_changes) / count(steps.flow_recomputes), "ratio",
                 "rate changes / recomputes");
    }
    report.Add("metrics.report_ms", Sum(plain, &EngineTimes::report_ms), "ms", "MakeRunReport");
    report.Add("trace.overhead_s", traced_wall_s - Sum(plain, &EngineTimes::wall_s), "s",
               "traced - untraced wall_s");
    AddUnmeasuredLayers(&report);
    WriteSpans(args.work_dir + "/spans-" + w.name + ".jsonl", kept_spans);
  }
  PrintScales(scales);
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

// --- silodd ---------------------------------------------------------------------

// The closed-loop request stream of one client.  The batch run's submit /
// complete history (BuildReplaySchedule) sets each job's lifetime.  Once per
// reschedule period of simulated time, every job that is running in the
// batch run reports its progress, as a training job's periodic report would:
// a `progress` write with a linear estimate of its remaining bytes, followed
// by a `query` read of its allocation for the coming period.
std::vector<ServeRequest> BuildRequests(const Trace& trace, const SimResult& batch,
                                        silod::Seconds period) {
  const std::vector<ReplayEvent> events = BuildReplaySchedule(trace, batch);
  std::vector<ServeRequest> requests;
  std::vector<bool> active(trace.jobs.size(), false);
  std::size_t next = 0;
  for (silod::Seconds tick = period; next < events.size(); tick += period) {
    for (; next < events.size() && events[next].t <= tick; ++next) {
      const ReplayEvent& e = events[next];
      requests.push_back(e.complete ? CompleteRequestFor(trace, e.job, e.t)
                                    : SubmitRequestFor(trace, e.job, e.t));
      active[e.job] = !e.complete;
    }
    for (std::size_t job = 0; job < trace.jobs.size(); ++job) {
      const JobResult& r = batch.jobs[job];
      if (!active[job] || r.first_start_time < 0 || r.first_start_time > tick) {
        continue;
      }
      const double left = (r.finish_time - tick) / (r.finish_time - r.first_start_time);
      ServeRequest progress;
      progress.verb = "progress";
      progress.args["key"] = "job" + std::to_string(job);
      progress.args["t"] = FormatExact(tick);
      progress.args["remaining"] = std::to_string(static_cast<Bytes>(
          static_cast<double>(trace.jobs[job].total_bytes) * std::clamp(left, 0.0, 1.0)));
      requests.push_back(std::move(progress));
      ServeRequest query;
      query.verb = "query";
      query.args["key"] = "job" + std::to_string(job);
      requests.push_back(std::move(query));
    }
  }
  return requests;
}

// A `stats` counter; clears *present when the daemon no longer reports it.
double StatField(const ServeResponse& stats, const std::string& field, bool* present) {
  const auto it = stats.fields.find(field);
  if (it == stats.fields.end()) {
    *present = false;
    return 0;
  }
  return std::strtod(it->second.c_str(), nullptr);
}

constexpr const char* kVerbs[] = {"submit", "complete", "progress", "query"};

// One run of one trace.
struct ServeSample {
  double setup_s = 0;
  double gen_s = 0;
  double wall_s = 0;
  double report_ms = 0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::map<std::string, std::vector<double>> verb_us;

  // Turns every time into reference-host time (host_speed.h).
  void Scale(double factor) {
    for (double* t : {&setup_s, &gen_s, &wall_s, &report_ms}) {
      *t *= factor;
    }
    for (std::vector<double>* series : {&write_us, &read_us}) {
      for (double& t : *series) {
        t *= factor;
      }
    }
    for (auto& [verb, series] : verb_us) {
      for (double& t : series) {
        t *= factor;
      }
    }
  }
};

// One trace's figures over its repeats of one kind, as in EngineTimes.
struct ServeTimes {
  int repeats = 0;
  std::vector<double> setups;
  double setup_s = 0;
  double gen_s = 0;
  double wall_s = 0;
  double report_ms = 0;
  RepeatMin write_us;
  RepeatMin read_us;
  std::map<std::string, RepeatMin> verb_us;

  bool Fold(const ServeSample& s) {
    ++repeats;
    setups.push_back(s.setup_s);
    setup_s = Median(setups);
    for (auto [mean, x] : {std::pair{&gen_s, s.gen_s}, {&wall_s, s.wall_s},
                           {&report_ms, s.report_ms}}) {
      *mean += (x - *mean) / repeats;
    }
    bool same = write_us.Fold(s.write_us) && read_us.Fold(s.read_us);
    for (const char* verb : kVerbs) {
      const auto it = s.verb_us.find(verb);
      same = verb_us[verb].Fold(it != s.verb_us.end() ? it->second : std::vector<double>{}) &&
             same;
    }
    return same;
  }
};

// One trace's deterministic outputs, from its first run: the daemon's
// report and its `stats` counters.
struct ServeOutputs {
  bool seen = false;
  double avg_jct_min = 0;
  double requests = 0;
  double writes = 0;
  double full_solves = 0;
  double delta_solves = 0;
  double reused_plans = 0;
  double jobs_rescored = 0;
  double jobs_reused = 0;
  double journal_records = 0;
  double journal_bytes = 0;
};

int RunServe(const Args& args) {
  const Workload& w = *args.workload;
  // The first w.traces seeds are timed; peak RSS covers all of them.
  std::vector<std::uint64_t> seeds = TraceSeeds(args.seed, w.traces * kRssTraceFactor);
  Report report;
  std::vector<ServeTimes> plain(seeds.size());
  std::vector<ServeTimes> traced(seeds.size());
  std::vector<ServeOutputs> outputs(seeds.size());
  std::vector<Span> kept_spans;  // The first traced round's.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> scales;  // Every trace run's SpeedScale.
  bool counters_present = true;
  bool rescore_present = true;

  const auto run_trace = [&](std::size_t k, bool trace) {
    ServeSample s;
    const double kernel_before = KernelSeconds();
    const std::int64_t t0 = NowNs();
    const Trace jobs = MakeTrace(w, seeds[k]);
    s.gen_s = ToSec(NowNs() - t0);
    Result<std::shared_ptr<Scheduler>> made = MakeSchedulerByName(w.policy);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      std::exit(2);
    }
    ExperimentConfig batch_config;
    batch_config.sim = MakeCluster(w, seeds[k]);
    const SimResult batch = RunExperimentWith(jobs, *made, batch_config);
    const std::vector<ServeRequest> requests =
        BuildRequests(jobs, batch, batch_config.sim.reschedule_period);

    ServiceConfig config;
    config.policy = w.policy;
    config.resources = batch_config.sim.resources;
    // Wide open, as in ReplayTraceThroughService: the batch engine has no
    // admission gate.
    config.admission.max_gpu_load = 1e18;
    // One file per trace: the peak-RSS children run traces at once.
    const std::string journal_path =
        args.work_dir + "/journal-" + w.name + "-" + std::to_string(k) + ".wal";
    // silodd's defaults: batch:64 sync, auto-compaction past 64 MB.
    JournalOptions journal;
    journal.path = journal_path;
    journal.max_bytes = 64ull * 1024 * 1024;
    std::filesystem::remove(journal_path);
    RecoveryInfo recovery;
    Result<std::unique_ptr<ServiceState>> created =
        ServiceState::CreateFromJournal(config, journal, &recovery);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      std::exit(2);
    }
    ServiceState& service = **created;
    s.setup_s = ToSec(NowNs() - t0);

    SpanLog spans;
    SpanLog* log = trace ? &spans : nullptr;
    std::uint64_t errors = 0;
    std::uint64_t writes = 0;
    const std::int64_t replay0 = NowNs();
    for (const ServeRequest& request : requests) {
      const int span = Begin(log, "serve.handle:" + request.verb);
      const std::int64_t r0 = NowNs();
      const ServeResponse response = service.Handle(request);
      const double us = Micros(NowNs() - r0);
      End(log, span);
      const bool write = IsMutatingVerb(request.verb);
      writes += write ? 1 : 0;
      (write ? s.write_us : s.read_us).push_back(us);
      s.verb_us[request.verb].push_back(us);
      if (!response.ok() && errors++ == 0) {
        report.Fail(request.verb + " " + request.args.at("key") + ": " + response.error);
      }
    }
    s.wall_s = ToSec(NowNs() - replay0);

    const std::int64_t m0 = NowNs();
    const ServeResponse final_report = service.Handle({"report", {}});
    s.report_ms = static_cast<double>(NowNs() - m0) * 1e-6;
    const double kernel_after = KernelSeconds();
    const ServeResponse stats = service.Handle({"stats", {}});
    attempted += requests.size();
    failed += errors;

    // Checks: no error responses, the daemon's JCTs equal the batch run's
    // and repeat exactly, and every mutating request was journaled.
    if (!final_report.ok() || !stats.ok()) {
      report.Fail("report/stats verb failed");
    }
    const RunReport served = service.Report();
    if (!JctSummariesIdentical(MakeRunReport(w.policy, "flow", batch), served)) {
      report.Fail("daemon JCT report of trace " + std::to_string(k) +
                  " differs from the batch flow run");
    }
    if (served.unfinished_jobs != 0) {
      report.Fail(std::to_string(served.unfinished_jobs) + " job(s) unfinished");
    }
    ServeOutputs& out = outputs[k];
    if (!out.seen) {
      out.seen = true;
      out.avg_jct_min = served.jct.avg_jct_min;
      out.requests = static_cast<double>(requests.size());
      out.writes = static_cast<double>(writes);
      out.full_solves = StatField(stats, "full-solves", &counters_present);
      out.delta_solves = StatField(stats, "delta-solves", &counters_present);
      out.reused_plans = StatField(stats, "reused-plans", &counters_present);
      out.journal_records = StatField(stats, "journal-records", &counters_present);
      out.journal_bytes = StatField(stats, "journal-bytes", &counters_present);
      out.jobs_rescored = StatField(stats, "jobs-rescored", &rescore_present);
      out.jobs_reused = StatField(stats, "jobs-reused", &rescore_present);
    } else if (served.jct.avg_jct_min != out.avg_jct_min) {
      report.Fail("avg JCT of trace " + std::to_string(k) + " differs between repeats");
    }
    if (service.journal() == nullptr || service.journal()->appended_records() != writes) {
      report.Fail("journal records differ from the mutating requests sent");
    }
    created->reset();
    std::filesystem::remove(journal_path);

    if (trace && traced[k].repeats == 0) {
      Keep(&kept_spans, spans.spans());
    }
    scales.push_back(SpeedScale(kernel_before, kernel_after));
    s.Scale(scales.back());
    if (!(trace ? traced : plain)[k].Fold(s)) {
      report.Fail("trace " + std::to_string(k) + " sent another request mix on a repeat");
    }
  };
  const double peak_rss_mb = args.trace ? 0.0 : MeanPeakRssMb(seeds.size(), run_trace);
  seeds.resize(w.traces);
  plain.resize(seeds.size());
  traced.resize(seeds.size());
  outputs.resize(seeds.size());
  RunRounds(args, seeds.size(), run_trace);

  const double requests = Sum(outputs, &ServeOutputs::requests);
  const double writes = Sum(outputs, &ServeOutputs::writes);
  const std::string per_round = std::to_string(seeds.size()) + " traces x " +
                                std::to_string(w.jobs) + " jobs; per-trace figures of " +
                                std::to_string(Repeats(plain)) + " repeats, summed";
  if (!args.trace) {
    const double wall_s = Sum(plain, &ServeTimes::wall_s);
    std::vector<double> jct;
    for (const ServeOutputs& o : outputs) {
      jct.push_back(o.avg_jct_min);
    }
    report.Add("setup_s", Sum(plain, &ServeTimes::setup_s), "s", per_round);
    report.Add("wall_s", wall_s, "s", per_round);
    report.Add("events_per_s", requests / wall_s, "1/s", "daemon requests");
    if (peak_rss_mb == 0) {
      report.Fail("a peak-RSS child run failed");
    }
    report.Add("peak_rss_mb", peak_rss_mb, "MB", "one trace per forked child, mean over traces");
    report.Add("avg_jct_min", Mean(jct), "min", "simulated, mean over traces");
    report.Add("ok_ratio", 1.0 - FailRatio(attempted, failed), "ratio", "ok responses / requests");
    report.Add("requests_per_s", requests / wall_s, "1/s",
               "daemon requests, one closed-loop client");
  } else {
    if (!rescore_present) {
      std::printf("note: stats has no jobs-rescored/jobs-reused; serve.rescore_ratio absent\n");
    }
    double gen_s = 0;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      gen_s += plain[k].gen_s;
    }
    const double full = Sum(outputs, &ServeOutputs::full_solves);
    const double delta = Sum(outputs, &ServeOutputs::delta_solves);
    const double records = Sum(outputs, &ServeOutputs::journal_records);
    const double rescored = Sum(outputs, &ServeOutputs::jobs_rescored);
    const double reused = Sum(outputs, &ServeOutputs::jobs_reused);
    report.Add("workload.gen_s", gen_s, "s", per_round);
    report.Add("sched.calls", full + delta, "count", "full + delta solves per round");
    // Whole-request latencies from the untraced rounds, so no span is inside.
    report.AddLatency("serve.write", Pool(plain, &ServeTimes::write_us), "us", Repeats(plain));
    report.AddLatency("serve.read", Pool(plain, &ServeTimes::read_us), "us", Repeats(plain));
    for (const char* verb : kVerbs) {
      std::vector<double> samples;
      for (const ServeTimes& t : traced) {
        const auto it = t.verb_us.find(verb);
        if (it != t.verb_us.end()) {
          samples.insert(samples.end(), it->second.values.begin(), it->second.values.end());
        }
      }
      report.AddLatency(std::string("serve.") + verb, samples, "us", Repeats(traced));
    }
    report.Add("serve.full_solves", full, "count");
    report.Add("serve.delta_solves", delta, "count");
    report.Add("serve.reused_plans", Sum(outputs, &ServeOutputs::reused_plans), "count");
    report.Add("serve.solves_per_write", (full + delta) / writes, "ratio");
    report.Add("serve.rescore_ratio",
               rescore_present && rescored + reused > 0 ? rescored / (rescored + reused) : 0.0,
               "ratio", rescore_present ? "rescored / (rescored + reused)" : "absent");
    report.Add("journal.records", records, "count");
    report.Add("journal.bytes", Sum(outputs, &ServeOutputs::journal_bytes), "bytes");
    report.Add("journal.records_per_write", records / writes, "ratio");
    report.Add("metrics.report_ms", Sum(plain, &ServeTimes::report_ms), "ms", "report verb");
    report.Add("trace.overhead_s",
               Sum(traced, &ServeTimes::wall_s) - Sum(plain, &ServeTimes::wall_s), "s",
               "traced - untraced wall_s");
    AddUnmeasuredLayers(&report);
    WriteSpans(args.work_dir + "/spans-" + w.name + ".jsonl", kept_spans);
  }
  if (!counters_present) {
    std::printf("note: stats lacks a solve or journal counter; reported as 0\n");
  }
  PrintScales(scales);
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "silobench: %s\nusage: silobench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (args.workload == nullptr || !have_seed || !(args.seconds > 0)) {
    return Usage("--workload, --seed and a positive --seconds are required");
  }
  return args.workload->serve ? RunServe(args) : RunEngine(args);
}

}  // namespace
}  // namespace silod::perfbench

int main(int argc, char** argv) { return silod::perfbench::Main(argc, argv); }
