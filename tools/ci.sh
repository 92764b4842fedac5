#!/usr/bin/env bash
# Tier-1 CI: strict-warnings build + tests, an ASan/UBSan build + tests, a
# TSan build of the real-thread runtime tests, a fault-churn benchmark
# smoke run with fault-path and Gavel-path digest checks, and a build and
# self-test of the repository benchmark (perfbench/).
#
#   tools/ci.sh            # all stages
#   tools/ci.sh strict     # warnings stage only
#   tools/ci.sh asan       # ASan/UBSan stage only
#   tools/ci.sh tsan       # TSan rt_test + storage_test stage only
#   tools/ci.sh smoke      # fault-churn benchmark smoke + fault-path and Gavel-path digests only
#   tools/ci.sh zone-smoke # zone-aware vs oblivious placement smoke only
#   tools/ci.sh scaling-smoke # fine-engine throughput + bit-identity smoke only
#   tools/ci.sh rt-fault-smoke # multi-process worker crash + minidump replay smoke only
#   tools/ci.sh serve-smoke # silodd daemon lifecycle + live reload + replay cross-check only
#   tools/ci.sh serve-crash-smoke # silodd SIGKILL mid-trace + journal recovery + graceful SIGTERM only
#   tools/ci.sh hetero-smoke # mixed GPU fleet: per-type report partition, uniform-fleet baseline digest, typed silodd replay
#   tools/ci.sh perfbench-build # the repository benchmark (perfbench/) compiles against src/ and passes its self-test
#
# Build trees live in build-ci-*/ next to the normal build/ so CI never
# clobbers a developer tree.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_stage() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure
}

if [[ "$stage" == "all" || "$stage" == "strict" ]]; then
  # -Wno-restrict: GCC 12's -Wrestrict fires inside libstdc++'s
  # std::string operator+ at -O2 (GCC bug 105651); nothing of ours.
  run_stage strict build-ci-strict \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror -Wno-restrict"
fi

if [[ "$stage" == "all" || "$stage" == "asan" ]]; then
  run_stage asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
fi

if [[ "$stage" == "all" || "$stage" == "tsan" ]]; then
  # The genuinely concurrent code: the real-thread runtime (loaders,
  # trainers, scheduler, fault injection; rt_test) and the storage layer it
  # runs on (storage_test: DataPipeline's multi-worker loaders and the
  # mutex-guarded InMemRemote store).  The simulators are single-threaded.
  # Build and run just these tests under ThreadSanitizer.
  echo "=== [tsan] configure ==="
  cmake -B build-ci-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  echo "=== [tsan] build ==="
  cmake --build build-ci-tsan -j "$jobs" --target rt_test storage_test
  echo "=== [tsan] test ==="
  ctest --test-dir build-ci-tsan -R '^(rt_test|storage_test)$' --output-on-failure
fi

if [[ "$stage" == "all" || "$stage" == "smoke" ]]; then
  # Fault-churn sweep in smoke mode: both engines survive a seeded crash
  # schedule with every job completing; fails on any lost job.  Then the
  # fault-path digest: one seeded run per engine exercising every fault kind
  # (server and zone crashes, degrade windows, DM restarts, worker crashes
  # under lose-partial-epoch, ignored events) must reproduce the committed
  # BASELINE_fault_paths.sha256 byte for byte.
  echo "=== [smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_fault_churn silod_sim
  echo "=== [smoke] run ==="
  ./build-ci-smoke/bench/bench_fault_churn --smoke build-ci-smoke/BENCH_fault_churn.json
  for engine in fine flow; do
    ./build-ci-smoke/tools/silod_sim --engine="$engine" --jobs=24 --gpus=16 --servers=8 \
        --cache-tb=1 --egress-gbps=2 --seed=7 --fault-server-crashes-per-hour=2 \
        --fault-worker-crashes-per-hour=2 --fault-degrade-windows-per-hour=1 \
        --fault-dm-restarts-per-hour=1 \
        --fault-zone="zone=rack0:servers=0-3:crashes-per-hour=1" \
        --restart-cost=lose-partial-epoch \
        --json="build-ci-smoke/fault_paths_${engine}.json" >/dev/null
  done
  (cd build-ci-smoke && sha256sum fault_paths_fine.json fault_paths_flow.json) \
      > build-ci-smoke/fault_paths.sha256
  diff BASELINE_fault_paths.sha256 build-ci-smoke/fault_paths.sha256 \
      || { echo "smoke: fault-path reports drifted from the committed baseline"; exit 1; }
  # Gavel-path digest: gavel+silod on the flow engine, where the fairness-
  # ratio bisection runs on almost every solve.  Three runs cover per-job caps
  # with shared datasets (cache floors bind, some above the whole pool), a
  # typed fleet (speeds 0.4/1/2) and the cache-only ablation; their JSON
  # reports and per-job dumps (17 significant digits) must reproduce the
  # committed BASELINE_gavel_paths.sha256 byte for byte.
  gavel_flags=(--engine=flow --policy=gavel+silod --jobs=200 --gpus=48 --cache-tb=2
               --egress-gbps=2 --seed=5)
  run_gavel() {
    local run="$1"
    shift
    ./build-ci-smoke/tools/silod_sim "${gavel_flags[@]}" "$@" \
        --json="build-ci-smoke/gavel_${run}.json" \
        --dump-jobs="build-ci-smoke/gavel_${run}.csv" >/dev/null
  }
  run_gavel cap --per-job-cap-mbps=40 --share=0.5
  run_gavel typed --gpu-types=v100:24:1,p100:16:0.4,a100:8:2
  run_gavel cacheonly --manage-remote-io=false
  (cd build-ci-smoke && sha256sum gavel_cap.json gavel_cap.csv gavel_typed.json \
      gavel_typed.csv gavel_cacheonly.json gavel_cacheonly.csv) \
      > build-ci-smoke/gavel_paths.sha256
  diff BASELINE_gavel_paths.sha256 build-ci-smoke/gavel_paths.sha256 \
      || { echo "smoke: Gavel-path reports drifted from the committed baseline"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "zone-smoke" ]]; then
  # Zone-aware placement smoke: a short zone-crash plan under both placements
  # (equal cache totals, identical crash schedule).  bench_fault_churn --smoke
  # asserts zone-aware loses strictly fewer cached bytes than zone-oblivious
  # with no-worse avg JCT, and exits non-zero otherwise; silod_sim exercises
  # the CLI topology path end to end (zone losses must be reported).
  echo "=== [zone-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [zone-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_fault_churn silod_sim
  echo "=== [zone-smoke] run ==="
  ./build-ci-smoke/bench/bench_fault_churn --smoke build-ci-smoke/BENCH_zone_smoke.json
  ./build-ci-smoke/tools/silod_sim --jobs=12 --servers=8 \
      --fault-zone="zone=rack0:servers=0-3:crashes-per-hour=2" \
      --zone-loss-bound=0.25 --seed=7 \
      | grep -q "rack0=" || { echo "zone-smoke: no per-zone loss reported"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "scaling-smoke" ]]; then
  # Engine-scaling smoke: a short 4k-job sweep.  bench_engine_scaling itself
  # enforces calendar vs linear-scan stepping bit-identity and, via
  # --baseline, fails if the calendar path's events/sec regresses more than
  # 30% against the committed BENCH_engine_scaling.json.
  echo "=== [scaling-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [scaling-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target bench_engine_scaling
  echo "=== [scaling-smoke] run ==="
  ./build-ci-smoke/bench/bench_engine_scaling --sizes=4096 --no-philly \
      --baseline=BENCH_engine_scaling.json --max-regress=0.3 \
      --out=build-ci-smoke/BENCH_engine_scaling.json

fi

if [[ "$stage" == "all" || "$stage" == "rt-fault-smoke" ]]; then
  # Multi-process worker smoke under ASan: SIGKILL a live worker process
  # mid-run via the fault plan, assert the run completes with correct
  # accounting (silod_sim exits non-zero on a timeout, an unfinished job or a
  # completion-invariant violation), a minidump was emitted, and silod_replay
  # re-executes its window bit-identically.
  echo "=== [rt-fault-smoke] configure ==="
  cmake -B build-ci-rt -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  echo "=== [rt-fault-smoke] build ==="
  cmake --build build-ci-rt -j "$jobs" --target silod_sim silod_replay
  echo "=== [rt-fault-smoke] run ==="
  dump_dir="build-ci-rt/rt-minidumps"
  rm -rf "$dump_dir"
  ./build-ci-rt/tools/silod_sim --engine=rt --workers-processes=true \
      --rt-jobs=2 --rt-epochs=12 --gpus=8 --cache-tb=0.001 --egress-gbps=0.2 \
      --restart-cost=checkpoint-interval:4 \
      --fault-plan="worker-crash t=0.3 job=0 restart=0.3" \
      --minidump-dir="$dump_dir" --rt-max-wall-seconds=30 \
      --json=build-ci-rt/rt_smoke.json
  grep -q '"worker_crashes": 1' build-ci-rt/rt_smoke.json \
      || { echo "rt-fault-smoke: crash not accounted"; exit 1; }
  grep -q '"worker_restarts": 1' build-ci-rt/rt_smoke.json \
      || { echo "rt-fault-smoke: restart not accounted"; exit 1; }
  dump="$(ls "$dump_dir"/minidump-*.txt 2>/dev/null | head -n1)"
  [[ -n "$dump" ]] || { echo "rt-fault-smoke: no minidump emitted"; exit 1; }
  ./build-ci-rt/tools/silod_replay "$dump"
fi

if [[ "$stage" == "all" || "$stage" == "serve-smoke" ]]; then
  # silodd lifecycle smoke: start the daemon, drive it through submit /
  # complete / stats / live reload-policy / shutdown with silod_client, then
  # replay a generated trace over the socket and require the daemon's JCT
  # summary to match the batch flow engine bit-for-bit (--check exits 1
  # otherwise).  `set -e` turns any failed step into a stage failure.
  echo "=== [serve-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [serve-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silodd silod_client
  echo "=== [serve-smoke] run ==="
  sock="build-ci-smoke/serve-smoke.sock"
  client="./build-ci-smoke/tools/silod_client"
  rm -f "$sock"
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=fifo+silod \
      --gpus=8 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-smoke: daemon never bound $sock"; exit 1; }

  "$client" --socket="$sock" submit key=smoke1 t=0 gpus=2 ideal-io=100e6 \
      total-bytes=1000000000000 dataset=smoke-ds dataset-size=150000000000 \
      | grep -q "decision=admitted" \
      || { echo "serve-smoke: submit not admitted"; exit 1; }
  "$client" --socket="$sock" complete key=smoke1 t=600 \
      | grep -q "state=completed" \
      || { echo "serve-smoke: complete failed"; exit 1; }
  "$client" --socket="$sock" --json stats \
      | grep -q '"completed": "1"' \
      || { echo "serve-smoke: stats did not count the completion"; exit 1; }

  # Live reload: swap the scheduler x cache pair without restarting and prove
  # the daemon is now planning with the new pair (coordl = per-job-static
  # cache model, not silod's dataset-quota).
  "$client" --socket="$sock" reload-policy policy=sjf+coordl \
      | grep -q "policy=sjf+coordl" \
      || { echo "serve-smoke: reload-policy failed"; exit 1; }
  "$client" --socket="$sock" plan \
      | grep -q "cache-model=per-job-static" \
      || { echo "serve-smoke: plan still on the old cache model after reload"; exit 1; }
  "$client" --socket="$sock" shutdown \
      | grep -q "state=shutting-down" \
      || { echo "serve-smoke: shutdown refused"; exit 1; }
  wait "$silodd_pid" || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
  trap - EXIT
  [[ ! -S "$sock" ]] || { echo "serve-smoke: socket left behind"; exit 1; }

  # Replay a trace through a fresh daemon (the report covers every job the
  # daemon ever saw, so the cross-check needs an empty table); --check
  # verifies the daemon's JCT summary against the local batch flow engine
  # bit-for-bit and exits 1 on any divergence.
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=sjf+silod \
      --gpus=8 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-smoke: replay daemon never bound $sock"; exit 1; }
  "$client" --socket="$sock" --serve-trace --check --jobs=25 --seed=3 \
      --policy=sjf+silod --gpus=8 --cache-tb=2 --egress-gbps=1.6 \
      > build-ci-smoke/serve_smoke_report.json
  "$client" --socket="$sock" shutdown >/dev/null
  wait "$silodd_pid" || { echo "serve-smoke: replay daemon exited non-zero"; exit 1; }
  trap - EXIT
fi

if [[ "$stage" == "all" || "$stage" == "serve-crash-smoke" ]]; then
  # Crash-injection smoke (docs/MODEL.md §12): start silodd with a write-ahead
  # journal, replay HALF a trace over the socket (monotone rid= tags), SIGKILL
  # the daemon mid-run, restart it over the same journal, then replay the FULL
  # trace — the recovered daemon must dedupe the already-applied prefix and
  # the final report must match the batch flow engine bit-for-bit (--check
  # exits 1 on any divergence).  Finishes with a graceful-SIGTERM check: exit
  # code 0 and the socket file unlinked.
  echo "=== [serve-crash-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [serve-crash-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silodd silod_client
  echo "=== [serve-crash-smoke] run ==="
  sock="build-ci-smoke/serve-crash.sock"
  wal="build-ci-smoke/serve-crash.wal"
  client="./build-ci-smoke/tools/silod_client"
  daemon_flags=(--socket="$sock" --policy=sjf+silod --gpus=8 --cache-tb=2
                --egress-gbps=1.6 --max-gpu-load=1e18
                --journal="$wal" --journal-sync=batch:8)
  trace_flags=(--jobs=20 --seed=3 --policy=sjf+silod --gpus=8 --cache-tb=2
               --egress-gbps=1.6)
  rm -f "$sock" "$wal"

  ./build-ci-smoke/tools/silodd "${daemon_flags[@]}" &
  silodd_pid=$!
  trap 'kill -9 "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-crash-smoke: daemon never bound $sock"; exit 1; }

  # Half the trace (20 jobs = 40 submit/complete events), then SIGKILL.
  "$client" --socket="$sock" --serve-trace --max-events=20 "${trace_flags[@]}" \
      || { echo "serve-crash-smoke: half-trace replay failed"; exit 1; }
  kill -9 "$silodd_pid"
  wait "$silodd_pid" 2>/dev/null || true
  rm -f "$sock"  # SIGKILL never unlinks; the restart rebinds.

  # Restart over the same journal: the banner must report the replay, and the
  # full-trace re-replay (same rids) must dedupe the prefix and cross-check
  # bit-for-bit against the batch engine.
  ./build-ci-smoke/tools/silodd "${daemon_flags[@]}" \
      2> build-ci-smoke/serve_crash_recovery.log &
  silodd_pid=$!
  trap 'kill -9 "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "serve-crash-smoke: recovered daemon never bound $sock"; exit 1; }
  grep -q "request(s) replayed" build-ci-smoke/serve_crash_recovery.log \
      || { echo "serve-crash-smoke: no recovery banner"; exit 1; }
  "$client" --socket="$sock" --serve-trace --check --retries=3 "${trace_flags[@]}" \
      > build-ci-smoke/serve_crash_report.json \
      || { echo "serve-crash-smoke: recovered daemon diverged from the batch engine"; exit 1; }
  "$client" --socket="$sock" --json stats | grep -q '"recovered-requests": "20"' \
      || { echo "serve-crash-smoke: expected 20 replayed requests"; exit 1; }

  # Graceful SIGTERM: drain, sync the journal, unlink the socket, exit 0.
  kill -TERM "$silodd_pid"
  wait "$silodd_pid" || { echo "serve-crash-smoke: SIGTERM exit was non-zero"; exit 1; }
  trap - EXIT
  [[ ! -S "$sock" ]] || { echo "serve-crash-smoke: socket left behind after SIGTERM"; exit 1; }
fi

if [[ "$stage" == "all" || "$stage" == "hetero-smoke" ]]; then
  # Heterogeneous-fleet smoke (docs/MODEL.md §13).  Three invariants:
  #   1. a mixed fleet produces a v2 report whose per-GPU-type summaries
  #      partition the finished jobs (counts sum to jct.finished), on both
  #      engines;
  #   2. declaring no GPU types leaves the canonical run's report verbatim —
  #      its sha256 must equal the committed BASELINE_hetero_uniform.sha256 —
  #      and declaring an all-speed-1.0 table reproduces that run's JCT
  #      distribution bit-for-bit;
  #   3. a typed silodd replays a trace bit-identically to the typed batch
  #      engine (silod_client --check exits 1 on any divergence).
  echo "=== [hetero-smoke] configure ==="
  cmake -B build-ci-smoke -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "=== [hetero-smoke] build ==="
  cmake --build build-ci-smoke -j "$jobs" --target silod_sim silodd silod_client
  echo "=== [hetero-smoke] run ==="
  sim="./build-ci-smoke/tools/silod_sim"
  base_flags=(--policy=sjf+silod --jobs=40 --gpus=16 --cache-tb=1
              --egress-gbps=2 --seed=7)

  for engine in flow fine; do
    "$sim" --engine="$engine" "${base_flags[@]}" --gpu-types=v100:8:1,k80:8:0.5 \
        --json="build-ci-smoke/hetero_${engine}.json" >/dev/null
    python3 - "build-ci-smoke/hetero_${engine}.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["report_version"] == 2, "not a v2 report"
groups = r.get("gpu_types", {})
assert set(groups) == {"v100", "k80"}, f"missing per-type groups: {sorted(groups)}"
total = sum(g["finished"] for g in groups.values())
assert total == r["jct"]["finished"], f"type partition broken: {total} != {r['jct']['finished']}"
for name, g in groups.items():
    assert g["finished"] > 0, f"empty group {name}"
PY
  done

  "$sim" --engine=flow "${base_flags[@]}" \
      --json=build-ci-smoke/hetero_uniform.json >/dev/null
  sha256sum build-ci-smoke/hetero_uniform.json | awk '{print $1}' \
      > build-ci-smoke/hetero_uniform.sha256
  diff BASELINE_hetero_uniform.sha256 build-ci-smoke/hetero_uniform.sha256 \
      || { echo "hetero-smoke: uniform-fleet report drifted from the committed baseline"; exit 1; }
  "$sim" --engine=flow "${base_flags[@]}" --gpu-types=any:16:1 \
      --json=build-ci-smoke/hetero_uniform_typed.json >/dev/null
  python3 - build-ci-smoke/hetero_uniform.json build-ci-smoke/hetero_uniform_typed.json <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["jct"] == b["jct"], "all-speed-1.0 fleet diverged from the untyped run"
assert a["makespan_min"] == b["makespan_min"], "makespan diverged"
PY

  # Pools must be at least as wide as the trace's largest gang (8 GPUs) —
  # gang scheduling never splits a job across type pools.
  sock="build-ci-smoke/hetero-smoke.sock"
  topo="gpu-type name=v100 count=10 speed=1;gpu-type name=k80 count=6 speed=0.5"
  rm -f "$sock"
  ./build-ci-smoke/tools/silodd --socket="$sock" --policy=sjf+silod \
      --gpus=16 --cache-tb=2 --egress-gbps=1.6 --max-gpu-load=1e18 \
      --topology="$topo" &
  silodd_pid=$!
  trap 'kill "$silodd_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [[ -S "$sock" ]] && break; sleep 0.1; done
  [[ -S "$sock" ]] || { echo "hetero-smoke: daemon never bound $sock"; exit 1; }
  ./build-ci-smoke/tools/silod_client --socket="$sock" --serve-trace --check \
      --jobs=25 --seed=3 --policy=sjf+silod --gpus=16 --cache-tb=2 \
      --egress-gbps=1.6 --topology="$topo" \
      > build-ci-smoke/hetero_serve_report.json \
      || { echo "hetero-smoke: typed daemon diverged from the typed batch engine"; exit 1; }
  grep -q '"gpu_types"' build-ci-smoke/hetero_serve_report.json \
      || { echo "hetero-smoke: daemon report lacks the per-type breakdown"; exit 1; }
  ./build-ci-smoke/tools/silod_client --socket="$sock" shutdown >/dev/null
  wait "$silodd_pid" || { echo "hetero-smoke: daemon exited non-zero"; exit 1; }
  trap - EXIT
fi

if [[ "$stage" == "all" || "$stage" == "perfbench-build" ]]; then
  # perfbench/ is a CMake package of its own that compiles ../src; a src/
  # change that breaks its compile fails every benchmark run, and no other
  # stage builds it.
  echo "=== [perfbench-build] configure ==="
  cmake -S perfbench -B build-ci-perfbench >/dev/null
  echo "=== [perfbench-build] build ==="
  cmake --build build-ci-perfbench -j "$jobs"
  echo "=== [perfbench-build] test ==="
  build-ci-perfbench/silobench_selftest
fi

echo "CI OK"
