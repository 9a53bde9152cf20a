#!/usr/bin/env bash
# Full verification matrix: plain build + ctest, one leg per sanitizer, and
# censyslint over src/. Each leg prints a one-line PASS/FAIL summary; the
# script exits non-zero if any leg fails.
#
# Usage:
#   scripts/check.sh            # all legs
#   scripts/check.sh plain      # just the plain build + ctest
#   scripts/check.sh address    # one sanitizer leg (address|thread|undefined)
#   scripts/check.sh faultoff   # CENSYSIM_FAULT_INJECTION=OFF compile + tests
#   scripts/check.sh trace      # flight-recorder leg: determinism probe,
#                               # tracereport smoke, TRACE=OFF compile-out
#   scripts/check.sh scaling    # BM_EngineTick 4-thread >= 2x 1-thread
#                               # (skips on runners with < 4 cores)
#   scripts/check.sh query      # standing-query determinism + columnar
#                               # corruption fallback under ASan and TSan
#   scripts/check.sh lint       # just censyslint (builds it if needed)
#   scripts/check.sh archlint   # architecture passes only (layering,
#                               # lock-order, unordered-iter) with the SARIF
#                               # report archived to build/archlint.sarif.json
#   scripts/check.sh mapbench [BASE]
#                               # the map benchmark, this checkout against
#                               # revision BASE (default HEAD~1): alternating
#                               # pairs, medians held to BENCHMARK.json bounds
#
# Sanitizer legs build into scratch dirs (build-asan, build-tsan, build-ubsan)
# and run the concurrency-heavy test subset, which is where sanitizer signal
# lives; the plain leg runs the full suite.
set -u

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 2)
RESULTS=()
FAILED=0

note() { printf '\n=== %s ===\n' "$*"; }

record() { # record <name> <rc>
  if [ "$2" -eq 0 ]; then
    RESULTS+=("PASS  $1")
  else
    RESULTS+=("FAIL  $1")
    FAILED=1
  fi
}

run_plain() {
  note "plain build + full ctest"
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "$JOBS" &&
    (cd build && ctest --output-on-failure)
  record "plain (full ctest)" $?
}

# The sanitizer-relevant subset: every test that spawns threads, plus the
# engine determinism checks that exercise the parallel executor, plus the
# pivot-table oracle (the commit-stream observer runs inside group commit),
# plus the WAL crash-recovery torture loop (fault unwinding + POSIX I/O
# under ASan), plus the commit stage's in-place diff and due-time index
# oracles and the pinned leader-journal digest (iterators into live maps).
SAN_TESTS=(
  "serving_test:"
  "storage_test:JournalConcurrencyTest.*:Wal*"
  "pipeline_test:ReadSideTest.LookupsRunConcurrentlyWithIngest:EntityTest.InPlaceUpsertMatchesComputeDeltaOverACopy:DueIndexTest.*"
  "search_test:IndexTest.*:IndexConcurrencyTest.*"
  "engines_test:WorldDeterminismTest.Parallel*:WorldDeterminismTest.GroupCommit*:WorldDeterminismTest.GoldenLeaderJournalDigest:TickReportTest.*:PivotOracleTest.*"
  "core_test:ExecutorTest.*:FaultInjectorTest.*:Crc32cTest.*"
  "failure_injection_test:WalTortureTest.*:WalFaultTest.*:TickPipelineFaultTest.*"
  "trace_test:"
  "replication_test:"
  "replica_router_test:"
  "query_test:"
)

run_sanitizer() { # run_sanitizer <address|thread|undefined> <dir>
  local kind="$1" dir="$2" rc=0
  note "sanitizer leg: $kind (build dir $dir)"
  # Fault injection is pinned ON so the torture/degradation tests run
  # under every sanitizer (it defaults ON, but the legs must not silently
  # lose that coverage if the default ever changes).
  cmake -B "$dir" -S . -DCENSYSIM_SANITIZE="$kind" \
    -DCENSYSIM_FAULT_INJECTION=ON >/dev/null &&
    cmake --build "$dir" -j "$JOBS" || { record "$kind leg" 1; return; }
  for spec in "${SAN_TESTS[@]}"; do
    local bin="${spec%%:*}" filter="${spec#*:}"
    if [ -n "$filter" ]; then
      "./$dir/tests/$bin" --gtest_filter="$filter" || rc=1
    else
      "./$dir/tests/$bin" || rc=1
    fi
  done
  record "$kind leg" $rc
}

# Production shape: CENSYSIM_FAULT_INJECTION=OFF must still compile and
# the WAL/recovery tests and the column-segment tests (CSG1 files share the
# WAL's frame codec, storage/frame.h) must still pass (fault::Hit folds to
# a constant nullopt; only the injection-dependent tests drop out).
run_faultoff() {
  note "fault-injection-off leg (build dir build-faultoff)"
  local rc=0
  cmake -B build-faultoff -S . -DCENSYSIM_FAULT_INJECTION=OFF >/dev/null &&
    cmake --build build-faultoff -j "$JOBS" || {
    record "fault-off leg" 1
    return
  }
  ./build-faultoff/tests/storage_test || rc=1
  ./build-faultoff/tests/core_test --gtest_filter="FaultInjectorTest.*" || rc=1
  ./build-faultoff/tests/query_test \
    --gtest_filter="ColumnSegmentTest.*:AnalyticsTierTest.*" || rc=1
  record "fault-off leg" $rc
}

# Flight-recorder leg (DESIGN.md §10): with TRACE=ON, run the tracer suite
# (including the determinism probe: traced digest == untraced digest) and a
# 200-tick smoke whose dump must summarize cleanly through tracereport;
# then prove -DCENSYSIM_TRACE=OFF still compiles and the macros fold away
# (the OFF build's trace_test is the static_assert + stub suite).
run_trace() {
  note "trace leg (build dirs build, build-traceoff)"
  local rc=0 out="build/trace_smoke.json"
  cmake -B build -S . -DCENSYSIM_TRACE=ON >/dev/null &&
    cmake --build build -j "$JOBS" --target trace_test tracereport || {
    record "trace leg" 1
    return
  }
  rm -f "$out"
  CENSYSIM_TRACE_SMOKE_OUT="$out" ./build/tests/trace_test || rc=1
  if [ -s "$out" ]; then
    ./build/tools/tracereport/tracereport "$out" || rc=1
    ./build/tools/tracereport/tracereport "$out" --category engine || rc=1
  else
    echo "trace leg: smoke run left no dump at $out" >&2
    rc=1
  fi
  cmake -B build-traceoff -S . -DCENSYSIM_TRACE=OFF >/dev/null &&
    cmake --build build-traceoff -j "$JOBS" --target trace_test &&
    ./build-traceoff/tests/trace_test || rc=1
  record "trace leg" $rc
}

# Thread-scaling leg: the staged pipeline's reason to exist. BM_EngineTick
# with 4 workers must move >=2x the items/sec of the 1-worker run. The
# ratio only means anything with real cores under it, so the leg skips
# (loudly) on small runners instead of reporting noise as failure.
run_scaling() {
  note "scaling leg (BM_EngineTick 1 vs 4 threads)"
  local cores
  cores=$(nproc 2>/dev/null || echo 1)
  if [ "$cores" -lt 4 ]; then
    echo "scaling leg: $cores core(s) < 4 — a 4-worker ratio would measure" \
      "scheduler contention, not pipeline scaling; skipping"
    RESULTS+=("SKIP  scaling leg (nproc=$cores)")
    return
  fi
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "$JOBS" --target micro_core || {
    record "scaling leg" 1
    return
  }
  local json="build/scaling_check.json"
  ./build/bench/micro_core --benchmark_filter='BM_EngineTick/(1|4)/' \
    --benchmark_format=json >"$json" || { record "scaling leg" 1; return; }
  python3 - "$json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
ips = {}
for b in report.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    name = b["name"]
    if "/1/" in name:
        ips[1] = b["items_per_second"]
    elif "/4/" in name:
        ips[4] = b["items_per_second"]
if 1 not in ips or 4 not in ips:
    sys.exit("scaling leg: BM_EngineTick rows missing from bench output")
ratio = ips[4] / ips[1]
print(f"scaling leg: 1-thread {ips[1]:.0f} items/s, "
      f"4-thread {ips[4]:.0f} items/s, ratio {ratio:.2f}x")
if ratio < 2.0:
    sys.exit(f"scaling leg: 4-thread/1-thread ratio {ratio:.2f}x < 2.0x")
PY
  record "scaling leg" $?
}

# Replication leg (DESIGN.md §11): the 10-seed chaos suites — link-fault
# digest convergence, crash-mid-apply re-bootstrap, router kill/revive —
# under ASan and TSan (reusing the sanitizer build dirs), plus a
# CENSYSIM_FAULT_INJECTION=OFF build proving the replicate/serving router
# sources compile with the injection layer folded away.
run_replication() {
  note "replication leg (build dirs build-asan, build-tsan, build-faultoff)"
  local rc=0
  local chaos="ReplicationChaosTest.*:ReplicaRouterChaosTest.*"
  for pair in "address build-asan" "thread build-tsan"; do
    local kind="${pair%% *}" dir="${pair#* }"
    cmake -B "$dir" -S . -DCENSYSIM_SANITIZE="$kind" \
      -DCENSYSIM_FAULT_INJECTION=ON >/dev/null &&
      cmake --build "$dir" -j "$JOBS" \
        --target replication_test replica_router_test || { rc=1; continue; }
    "./$dir/tests/replication_test" --gtest_filter="$chaos" || rc=1
    "./$dir/tests/replica_router_test" --gtest_filter="$chaos" || rc=1
  done
  # Production shape: replication must compile and its non-injection tests
  # must pass with the fault layer compiled out.
  cmake -B build-faultoff -S . -DCENSYSIM_FAULT_INJECTION=OFF >/dev/null &&
    cmake --build build-faultoff -j "$JOBS" \
      --target replication_test replica_router_test &&
    ./build-faultoff/tests/replication_test &&
    ./build-faultoff/tests/replica_router_test || rc=1
  record "replication leg" $rc
}

# Query-tier leg (DESIGN.md §12): the standing-query determinism run and
# the columnar corruption-fallback suite under ASan and TSan (reusing the
# sanitizer build dirs). The registry's commit observer shares the
# command thread with the write side and its consumers drain from reader
# threads, so this is where a lock-order or lifetime mistake would show.
run_query() {
  note "query leg (build dirs build-asan, build-tsan)"
  local rc=0
  for pair in "address build-asan" "thread build-tsan"; do
    local kind="${pair%% *}" dir="${pair#* }"
    cmake -B "$dir" -S . -DCENSYSIM_SANITIZE="$kind" \
      -DCENSYSIM_FAULT_INJECTION=ON >/dev/null &&
      cmake --build "$dir" -j "$JOBS" --target query_test || {
      rc=1
      continue
    }
    "./$dir/tests/query_test" || rc=1
    CENSYSIM_THREADS=4 "./$dir/tests/query_test" \
      --gtest_filter="StandingDeterminismTest.*" || rc=1
  done
  record "query leg" $rc
}

run_lint() {
  note "censyslint"
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "$JOBS" --target censyslint &&
    ./build/tools/censyslint/censyslint \
      --layers=tools/censyslint/layers.txt \
      --baseline=tools/censyslint/baseline.txt src &&
    ./build/tools/censyslint/censyslint --self-test tests/lint_fixtures
  record "censyslint (src + self-test)" $?
}

# Architecture-only leg: the three whole-program passes, with the SARIF
# report archived so CI can attach it as an artifact and reviewers can
# diff findings across runs.
run_archlint() {
  note "censyslint architecture passes (SARIF -> build/archlint.sarif.json)"
  local rc=0 out="build/archlint.sarif.json"
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "$JOBS" --target censyslint || {
    record "archlint leg" 1
    return
  }
  ./build/tools/censyslint/censyslint \
    --passes=layering,lock-order,unordered-iter \
    --layers=tools/censyslint/layers.txt \
    --baseline=tools/censyslint/baseline.txt \
    --json="$out" src || rc=1
  # The archived report must be well-formed SARIF: parseable JSON with the
  # censyslint tool driver in runs[0].
  python3 - "$out" <<'PY' || rc=1
import json
import sys

with open(sys.argv[1]) as f:
    sarif = json.load(f)
assert sarif["version"] == "2.1.0", sarif.get("version")
driver = sarif["runs"][0]["tool"]["driver"]
assert driver["name"] == "censyslint", driver
print(f"archlint: {len(sarif['runs'][0]['results'])} result(s) in {sys.argv[1]}")
PY
  record "archlint leg" $rc
}

# Benchmark leg: the map benchmark (mapbench/, declared in BENCHMARK.json),
# run on revision BASE and on this checkout as alternating pairs, each pair
# with one seed, each side building its own .bench_build/. It fails on a
# run that exits non-zero or reports "correct": false, on a failed share
# (failed / attempted) above the base's, or on an end-to-end median worse
# than the base's by more than the metric's bound. BASE is exported with
# git archive into a temporary directory outside the repository (no .git
# state to leave behind if the leg is killed), removed on exit.
run_mapbench() { # run_mapbench <base revision>
  local base="$1" dir
  note "mapbench leg (this checkout against $base)"
  if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "mapbench leg: no revision $base" >&2
    record "mapbench leg" 1
    return
  fi
  dir=$(mktemp -d)
  trap "rm -rf '$dir'" EXIT
  git archive "$base" | tar -x -C "$dir" || { record "mapbench leg" 1; return; }
  python3 - "$dir" "$PWD" <<'PY'
import json
import statistics
import subprocess
import sys
import time

# Each side runs first in half of the pairs, so a drift in the host's
# speed during the leg falls on both sides alike.
PAIRS = 10
FIRST_SEED = 301

trees = {"base": sys.argv[1], "change": sys.argv[2]}
with open(f"{trees['change']}/BENCHMARK.json") as f:
    spec = json.load(f)
e2e = spec["end_to_end"]


def run(side, workload, seed):
    """One benchmark run's last line, with the end-to-end metrics' values
    under "values"; exits the leg on a failed or incorrect run."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(spec["command"] + args, cwd=trees[side],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = proc.returncode == 0 and result["correct"] is True
        metrics = result["metrics"]
        result["values"] = {m["name"]: float(metrics[m["name"]]["value"])
                            for m in e2e}
    except (IndexError, KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"mapbench leg: {side} {workload} seed {seed} failed "
                 f"(exit {proc.returncode}): "
                 f"{lines[-1] if lines else 'no output'}")
    return result


start = time.monotonic()
runs = {}
for workload in (w["name"] for w in spec["workloads"]):
    runs[workload] = {"base": [], "change": []}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            t = time.monotonic()
            runs[workload][side].append(run(side, workload, seed))
            print(f"{workload} pair {i + 1}/{PAIRS} {side:<6} seed {seed}: "
                  f"{time.monotonic() - t:.0f} s", flush=True)

failed = False
for workload, sides in runs.items():
    share = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
             for s, rs in sides.items()}
    share_ok = share["change"] <= share["base"]
    failed |= not share_ok
    print(f"\n{workload}: {PAIRS} pairs; failed share "
          f"base {share['base']:.3g}, change {share['change']:.3g}: "
          f"{'ok' if share_ok else 'FAIL'}")
    print(f"{'metric':<24} {'base':>10} {'change':>10} {'delta':>8} "
          f"{'bound':>6}  verdict")
    for m in e2e:
        b, c = (statistics.median(r["values"][m["name"]] for r in sides[s])
                for s in ("base", "change"))
        delta = (c - b) / b
        worse = delta if m["better"] == "lower" else -delta
        verdict = "FAIL" if worse > m["bound"] else "ok"
        failed |= verdict == "FAIL"
        print(f"{m['name']:<24} {b:>10.5g} {c:>10.5g} {delta:>+8.1%} "
              f"{m['bound']:>6.2f}  {verdict}")
print(f"\nmapbench leg: {PAIRS} pairs per workload, "
      f"{(time.monotonic() - start) / 60:.1f} min")
sys.exit(1 if failed else 0)
PY
  record "mapbench leg" $?
}

LEG="${1:-all}"
case "$LEG" in
  plain) run_plain ;;
  address) run_sanitizer address build-asan ;;
  thread) run_sanitizer thread build-tsan ;;
  undefined) run_sanitizer undefined build-ubsan ;;
  faultoff) run_faultoff ;;
  trace) run_trace ;;
  scaling) run_scaling ;;
  replication) run_replication ;;
  query) run_query ;;
  lint) run_lint ;;
  archlint) run_archlint ;;
  mapbench) run_mapbench "${2:-HEAD~1}" ;;
  all)
    run_plain
    run_lint
    run_archlint
    run_faultoff
    run_trace
    run_scaling
    run_sanitizer address build-asan
    run_sanitizer thread build-tsan
    run_sanitizer undefined build-ubsan
    run_replication
    run_query
    run_mapbench HEAD~1
    ;;
  *)
    echo "usage: scripts/check.sh [plain|address|thread|undefined|faultoff|trace|scaling|replication|query|lint|archlint|all]" >&2
    echo "       scripts/check.sh mapbench [BASE]" >&2
    exit 2
    ;;
esac

printf '\n--- summary ---\n'
for line in "${RESULTS[@]}"; do printf '%s\n' "$line"; done
exit "$FAILED"
