// silodd: the long-lived SiloD cluster service (docs/MODEL.md §11).
//
//   silodd --socket=/tmp/silod.sock --policy=sjf+silod
//          --gpus=8 --cache-tb=2 --egress-gbps=1.6
//          --journal=/var/lib/silod/journal --journal-sync=batch:64
//
// A single-process event-loop daemon: clients submit/complete/cancel jobs
// over a Unix-domain socket (serve/proto.h framing) and the daemon keeps an
// always-current AllocationPlan via the planner — the policy's batch
// scheduler with epoch-coalesced re-solves, the same for every policy pair —
// and admission control in front of the scheduler.
// Drive it with silod_client.
//
// Crash safety (docs/MODEL.md §12): with --journal, every mutating request
// is write-ahead logged before it applies, and a restart replays the journal
// to rebuild the exact pre-crash state.  SIGTERM/SIGINT exit the poll loop
// cleanly: the in-flight response (if any) is already written, the journal
// is synced, and the socket file is unlinked.
#include <csignal>
#include <cstdio>
#include <cstring>

#include "src/common/flags.h"
#include "src/common/topology.h"
#include "src/serve/journal.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

using namespace silod;

namespace {

// Async-signal-safe shutdown flag: the handler only sets it; the poll loop
// (interrupted with EINTR because the handlers install without SA_RESTART)
// re-checks it before blocking again.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void HandleSignal(int signum) { g_signal = signum; }

bool InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // No SA_RESTART: poll() must return EINTR.
  return sigaction(SIGTERM, &action, nullptr) == 0 &&
         sigaction(SIGINT, &action, nullptr) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.Define("socket", "", "Unix socket path to listen on (required)");
  flags.Define("policy", "fifo+silod",
               "initial \"<scheduler>+<cache>\" policy pair (hot-swappable via reload-policy)");
  flags.Define("gpus", "8", "cluster GPU count");
  flags.Define("cache-tb", "2", "cluster cache pool (TB)");
  flags.Define("egress-gbps", "1.6", "remote storage egress limit (Gbps)");
  flags.Define("per-job-cap-mbps", "0", "per-job remote-IO cap (MB/s); 0 = unlimited");
  flags.Define("servers", "1", "cache server count");
  flags.Define("topology", "",
               "cache-server failure domains and/or the GPU-type table, e.g. "
               "\"rack0=0-3;rack1=4-7[;loss-bound=0.25][;gpu-type name=v100 count=6 speed=1]"
               "[;gpu-type name=k80 count=2 speed=0.5]\"; gpu-type counts must sum to --gpus; "
               "empty runs zone-oblivious on a uniform fleet");
  flags.Define("manage-remote-io", "true", "SiloD throttles remote IO (ablation: false)");
  flags.Define("max-gpu-load", "1",
               "admission threshold: admit while (active demand + candidate) / gpus <= this "
               "(a submission landing exactly at the threshold is admitted)");
  flags.Define("max-queue", "1024",
               "admission-queued submissions beyond this are rejected (0 = never queue)");
  flags.Define("replan-interval-s", "0",
               "epoch batching: coalesce pending events for this much virtual time between "
               "re-solves (0 = re-solve on every event)");
  flags.Define("coalesce-events", "1",
               "epoch batching: re-solve early once this many events are pending");
  flags.Define("journal", "",
               "write-ahead request journal path; on restart the surviving records replay to "
               "rebuild the exact pre-crash state (empty = no durability)");
  flags.Define("journal-sync", "batch:64",
               "journal fsync policy: always | batch:<N> (fdatasync every N appends) | none");
  flags.Define("journal-max-mb", "64",
               "auto-compact the journal (checkpoint + truncate) once it exceeds this many MB; "
               "0 = compact only via the checkpoint verb");
  if (const Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Help("silodd").c_str());
    return 2;
  }
  if (flags.GetString("socket").empty()) {
    std::fprintf(stderr, "--socket is required\n%s", flags.Help("silodd").c_str());
    return 2;
  }

  ServiceConfig config;
  config.policy = flags.GetString("policy");
  config.scheduler.manage_remote_io = flags.GetBool("manage-remote-io");
  config.resources.total_gpus = static_cast<int>(flags.GetInt("gpus"));
  config.resources.total_cache = TB(flags.GetDouble("cache-tb"));
  config.resources.remote_io = Gbps(flags.GetDouble("egress-gbps"));
  if (flags.GetDouble("per-job-cap-mbps") > 0) {
    config.resources.per_job_remote_cap = MBps(flags.GetDouble("per-job-cap-mbps"));
  }
  config.resources.num_servers = static_cast<int>(flags.GetInt("servers"));
  if (!flags.GetString("topology").empty()) {
    Result<ClusterTopology> topology = ClusterTopology::Parse(flags.GetString("topology"));
    if (!topology.ok()) {
      std::fprintf(stderr, "--topology: %s\n", topology.status().ToString().c_str());
      return 2;
    }
    config.topology = *std::move(topology);
  }
  config.admission.max_gpu_load = flags.GetDouble("max-gpu-load");
  config.admission.max_queue = static_cast<int>(flags.GetInt("max-queue"));
  config.planning.min_replan_interval = flags.GetDouble("replan-interval-s");
  config.planning.max_coalesced_events =
      static_cast<std::uint64_t>(flags.GetInt("coalesce-events"));

  JournalOptions journal;
  const bool use_journal = !flags.GetString("journal").empty();
  if (use_journal) {
    journal.path = flags.GetString("journal");
    if (const Status st = ParseJournalSyncSpec(flags.GetString("journal-sync"), &journal);
        !st.ok()) {
      std::fprintf(stderr, "--journal-sync: %s\n", st.ToString().c_str());
      return 2;
    }
    const std::int64_t max_mb = flags.GetInt("journal-max-mb");
    if (max_mb < 0) {
      std::fprintf(stderr, "--journal-max-mb must be >= 0\n");
      return 2;
    }
    journal.max_bytes = static_cast<std::uint64_t>(max_mb) * 1024 * 1024;
  }
  RecoveryInfo recovery;
  Result<std::unique_ptr<ServiceState>> service =
      use_journal ? ServiceState::CreateFromJournal(std::move(config), journal, &recovery)
                  : ServiceState::Create(std::move(config));
  if (!service.ok()) {
    std::fprintf(stderr, "silodd: %s\n", service.status().ToString().c_str());
    return 2;
  }
  if (use_journal) {
    for (const std::string& warning : recovery.warnings) {
      std::fprintf(stderr, "silodd: recovery warning: %s\n", warning.c_str());
    }
    std::fprintf(stderr,
                 "silodd: journal %s: %s%llu request(s) replayed, %llu failed, %llu torn "
                 "byte(s) dropped\n",
                 journal.path.c_str(), recovery.from_checkpoint ? "checkpoint restored, " : "",
                 static_cast<unsigned long long>(recovery.replayed_requests),
                 static_cast<unsigned long long>(recovery.replayed_errors),
                 static_cast<unsigned long long>(recovery.dropped_bytes));
  }

  if (!InstallSignalHandlers()) {
    std::fprintf(stderr, "silodd: failed to install signal handlers\n");
    return 1;
  }
  UnixServer server(flags.GetString("socket"), service->get());
  server.set_stop_flag(&g_signal);
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "silodd: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "silodd: policy %s, listening on %s\n",
               (*service)->policy_name().c_str(), server.socket_path().c_str());
  const Status served = server.Serve();
  // All exit paths flush batched journal appends; the socket file is
  // unlinked by the server's destructor.
  if (const Status st = (*service)->SyncJournal(); !st.ok()) {
    std::fprintf(stderr, "silodd: journal sync on shutdown: %s\n", st.ToString().c_str());
  }
  if (!served.ok()) {
    // One-line diagnosis so an operator (or CI) can tell a socket failure
    // from a clean exit without scraping earlier output.
    std::fprintf(stderr, "silodd: fatal socket error: %s\n", served.ToString().c_str());
    return 1;
  }
  if (g_signal != 0) {
    std::fprintf(stderr, "silodd: caught %s, clean shutdown\n",
                 g_signal == SIGTERM ? "SIGTERM" : (g_signal == SIGINT ? "SIGINT" : "signal"));
    return 0;
  }
  std::fprintf(stderr, "silodd: clean shutdown\n");
  return 0;
}
