#!/usr/bin/env bash
# Full check: build and test plain, then again under ASan+UBSan. Both
# ctest legs always run; the script exits nonzero if either failed, so a
# plain-leg failure is never masked by a green sanitized leg.
set -euo pipefail

cd "$(dirname "$0")/.."

# nproc is a coreutils extra some minimal images lack; POSIX getconf is
# the fallback.
jobs() {
  if command -v nproc >/dev/null 2>&1; then
    nproc
  else
    getconf _NPROCESSORS_ONLN
  fi
}
J="$(jobs)"

# Pass a compiler launcher (ccache in CI) through to both builds.
LAUNCHER_ARGS=()
if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
  LAUNCHER_ARGS+=("-DCMAKE_CXX_COMPILER_LAUNCHER=${CMAKE_CXX_COMPILER_LAUNCHER}")
fi

echo "=== plain build ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "${LAUNCHER_ARGS[@]}"
cmake --build build -j"$J"
PLAIN_RC=0
ctest --test-dir build --output-on-failure -j"$J" || PLAIN_RC=$?

# A short differential-fuzz sweep (fixed seed, so reproducible) plus the
# committed corpus. Failures drop minimized repros next to the build.
echo "=== differential fuzz (corpus + 50 random programs) ==="
FUZZ_RC=0
./build/examples/slo_fuzz --runs 50 --seed 1 --minimize \
  --corpus tests/corpus --out build/fuzz-repros || FUZZ_RC=$?

# Lint leg: the layout-hazard suite over the 12 embedded workloads and
# the committed seed corpus. Error-severity findings fail the leg;
# layout-pin notes are expected (they demote types instead). A short
# injected-hazard sweep proves the lint oracle is alive in both
# directions: it must flag injected hazards, and a broken lint
# (--inject-lint-bug) must be caught.
echo "=== lint (workloads + corpus + injected hazards) ==="
LINT_RC=0
./build/examples/slo_lint --workloads || LINT_RC=$?
for f in tests/corpus/*.minic; do
  ./build/examples/slo_lint "$f" || LINT_RC=$?
done
./build/examples/slo_fuzz --runs 10 --seed 3 --inject-hazard uaf \
  || LINT_RC=$?
./build/examples/slo_fuzz --runs 10 --seed 3 --inject-hazard uninit \
  || LINT_RC=$?
if ./build/examples/slo_fuzz --runs 5 --seed 3 --inject-hazard uaf \
    --inject-lint-bug >/dev/null 2>&1; then
  echo "lint oracle is vacuous: --inject-lint-bug was not caught"
  LINT_RC=1
fi

# VM engine leg: the bytecode VM must be a drop-in replacement for the
# tree walker. The whole suite runs again with SLO_ENGINE=vm (runProgram
# dispatches on it), then a 500-program differential sweep holds the
# engine-parity oracle — output, cycles, misses, leak census, and
# miss-attribution partitions bit-identical between the engines — and an
# injected VM mis-charge (--inject-vm-bug) proves that oracle can
# actually fail.
echo "=== VM engine (full suite + 500-run parity sweep) ==="
VM_RC=0
SLO_ENGINE=vm ctest --test-dir build --output-on-failure -j"$J" || VM_RC=$?
./build/examples/slo_fuzz --runs 500 --seed 11 --engine-parity --minimize \
  --out build/fuzz-repros || VM_RC=$?
if ./build/examples/slo_fuzz --runs 5 --seed 11 --engine-parity \
    --inject-vm-bug >/dev/null 2>&1; then
  echo "engine-parity oracle is vacuous: --inject-vm-bug was not caught"
  VM_RC=1
fi

# Engine wall-time gate: the VM exists to make simulation affordable, so
# bench_table3 must show it staying well ahead of the walker while
# producing bit-identical rows. The 2.5x floor is deliberately below the
# 3.6-3.9x an idle box measures (see EXPERIMENTS.md) so a loaded CI box
# does not flake; the engines run back to back, serially, for a fair
# wall-time pair.
echo "=== engine wall-time gate (walker vs vm) ==="
ENGINE_RC=0
(cd build \
  && SLO_BENCH_THREADS=1 ./bench/bench_table3_performance --engine=walker \
  && mv BENCH_table3.json BENCH_table3_walker.json \
  && SLO_BENCH_THREADS=1 ./bench/bench_table3_performance --engine=vm \
  && mv BENCH_table3.json BENCH_table3_vm.json) || ENGINE_RC=$?
python3 scripts/bench_compare.py --engine-compare \
  build/BENCH_table3_walker.json build/BENCH_table3_vm.json || ENGINE_RC=$?

# Table 1 gate: the Legal/Proven/Relax census exits nonzero when
# Legal <= Proven <= Relax breaks, and its stdout (every column plus a
# sample discharge diagnostic) must equal the checked-in baseline.
echo "=== Table 1 legality census (subset gate + baseline) ==="
TABLE1_RC=0
./build/bench/bench_table1_legality > build/BENCH_table1.txt || TABLE1_RC=$?
cmp build/BENCH_table1.txt bench/baselines/BENCH_table1.txt \
  || { echo "Table 1 diverged from bench/baselines/BENCH_table1.txt"; TABLE1_RC=1; }

# Sampled-profile smoke: collect a sampled (Caliper stand-in) DMISS
# profile through the driver, write it out, plan from the file in a
# second process, then run a short fuzz sweep where every oracle must
# hold with the planner fed sampled data.
echo "=== sampled-profile smoke (collection -> file -> advice) ==="
SAMPLED_RC=0
./build/examples/slo_driver --scheme=DMISS --sample-period 61 \
  --profile-out build/sampled.profile --run examples/sample.minic \
  >/dev/null || SAMPLED_RC=$?
./build/examples/slo_driver --scheme=DMISS \
  --profile-in build/sampled.profile --advise examples/sample.minic \
  >/dev/null || SAMPLED_RC=$?
./build/examples/slo_fuzz --runs 25 --seed 2 --sampled-profiles \
  || SAMPLED_RC=$?

# Incremental leg: advise the two-TU example cold (populating the
# summary cache), again warm (every summary served from disk), and the
# rendered advice — text and JSON — must be byte-identical; then a short
# incremental-parity fuzz sweep (mutate one TU, warm vs from-scratch
# cold) with its vacuity check: serving deliberately stale summaries
# (--inject-stale-summary) must be caught.
echo "=== incremental pipeline (cold vs warm byte-identity) ==="
INC_RC=0
rm -rf build/inc-cache
./build/examples/slo_driver --summary-cache build/inc-cache \
  --advice-json=build/advice-cold.json \
  examples/incremental_a.minic examples/incremental_b.minic \
  > build/advice-cold.txt 2>/dev/null || INC_RC=$?
./build/examples/slo_driver --summary-cache build/inc-cache \
  --advice-json=build/advice-warm.json \
  examples/incremental_a.minic examples/incremental_b.minic \
  > build/advice-warm.txt 2>/dev/null || INC_RC=$?
cmp build/advice-cold.txt build/advice-warm.txt \
  || { echo "warm advice text diverged from cold"; INC_RC=1; }
cmp build/advice-cold.json build/advice-warm.json \
  || { echo "warm advice JSON diverged from cold"; INC_RC=1; }
./build/examples/slo_fuzz --runs 20 --seed 21 --incremental-parity \
  --out build/fuzz-repros || INC_RC=$?
if ./build/examples/slo_fuzz --runs 5 --seed 21 --incremental-parity \
    --inject-stale-summary --out build/fuzz-repros >/dev/null 2>&1; then
  echo "incremental-parity oracle is vacuous: --inject-stale-summary was not caught"
  INC_RC=1
fi

# Heap-layout leg: advice must not depend on where malloc puts things.
# The two-TU summary-cache run (text and JSON) and --advise --diags-json
# over the seed corpus run once with default malloc and once with
# glibc's tcache off and every allocation above 4 KiB mmapped, which
# moves most heap addresses; the bytes must be identical. An ordering
# keyed on pointers would show here first.
echo "=== heap layout (advice independent of malloc placement) ==="
HEAP_RC=0
heap_run() { # heap_run default|moved CMD...: CMD under that malloc layout
  local layout=$1; shift
  if [[ $layout == moved ]]; then
    GLIBC_TUNABLES=glibc.malloc.tcache_count=0:glibc.malloc.mmap_threshold=4096 "$@"
  else
    "$@"
  fi
}
for layout in default moved; do
  rm -rf "build/heap-$layout-cache"
  heap_run "$layout" ./build/examples/slo_driver \
    --summary-cache "build/heap-$layout-cache" \
    --advice-json="build/heap-$layout-advice.json" \
    examples/incremental_a.minic examples/incremental_b.minic \
    > "build/heap-$layout-advice.txt" 2>/dev/null || HEAP_RC=$?
  for f in tests/corpus/*.minic; do
    heap_run "$layout" ./build/examples/slo_driver --advise --diags-json "$f" \
      || HEAP_RC=$?
  done > "build/heap-$layout-corpus.txt" 2>&1
done
for out in advice.txt advice.json corpus.txt; do
  cmp "build/heap-default-$out" "build/heap-moved-$out" \
    || { echo "moving the heap changed $out"; HEAP_RC=1; }
done

# Service leg: start the advisory daemon on an ephemeral port, stream
# the two-TU example through the wire protocol, and the served advice
# must be byte-identical to the monolithic slo_driver run; then a
# concurrent hammer, a 200-frame protocol-fuzz sweep against the live
# daemon, the observability smokes (GetMetrics JSON + Prometheus lint,
# a traced request whose merged Chrome trace carries daemon spans while
# the advice bytes stay untouched), a clean shutdown, the fuzz oracle's
# vacuity check (a daemon started with --inject-frame-bug must be
# caught), the flight-recorder dump check on an induced mid-frame
# stall, and the service bench (a telemetry-free daemon paired
# in-process) gated on the telemetry overhead budget.
echo "=== advisory service (daemon parity + frame fuzz + overhead gate) ==="
SVC_RC=0
rm -f build/served.port build/served-bug.port
./build/examples/slo_served --port=0 --port-file=build/served.port &
SVC_PID=$!
for _ in $(seq 1 100); do [[ -s build/served.port ]] && break; sleep 0.1; done
if [[ ! -s build/served.port ]]; then
  echo "slo_served did not publish a port"
  SVC_RC=1
  kill "$SVC_PID" 2>/dev/null || true
else
  ./build/examples/slo_client --port-file=build/served.port \
    --put-source incremental_a.minic=examples/incremental_a.minic \
    --put-source incremental_b.minic=examples/incremental_b.minic \
    --get-advice > build/advice-served.txt || SVC_RC=$?
  rm -rf build/svc-cache
  ./build/examples/slo_driver --summary-cache build/svc-cache \
    examples/incremental_a.minic examples/incremental_b.minic \
    > build/advice-oneshot.txt 2>/dev/null || SVC_RC=$?
  cmp build/advice-served.txt build/advice-oneshot.txt \
    || { echo "served advice diverged from the one-shot driver"; SVC_RC=1; }
  ./build/examples/slo_client --port-file=build/served.port \
    --put-source incremental_a.minic=examples/incremental_a.minic \
    --put-source incremental_b.minic=examples/incremental_b.minic \
    --hammer 4 --hammer-rounds 5 >/dev/null || SVC_RC=$?
  ./build/examples/slo_client --port-file=build/served.port \
    --fuzz-frames 200 --seed 7 || SVC_RC=$?
  # Observability smokes against the live daemon: GetMetrics must parse
  # as JSON and lint cleanly as Prometheus text, and a traced request
  # must yield a merged Chrome trace carrying daemon-side spans while
  # leaving the advice bytes untouched (trace ids never leak into
  # advice).
  ./build/examples/slo_client --port-file=build/served.port --metrics \
    > build/served-metrics.json || SVC_RC=$?
  python3 -c "import json,sys; json.load(open('build/served-metrics.json'))" \
    || { echo "GetMetrics JSON does not parse"; SVC_RC=1; }
  ./build/examples/slo_client --port-file=build/served.port --metrics-prom \
    | python3 scripts/promlint.py || SVC_RC=$?
  ./build/examples/slo_client --port-file=build/served.port \
    --get-advice --trace-json=build/advice-trace.json \
    > build/advice-traced.txt || SVC_RC=$?
  cmp build/advice-traced.txt build/advice-oneshot.txt \
    || { echo "traced advice diverged from the one-shot driver"; SVC_RC=1; }
  for span in daemon/read daemon/lock-wait daemon/merge daemon/render; do
    grep -q "$span" build/advice-trace.json \
      || { echo "merged trace is missing the $span span"; SVC_RC=1; }
  done
  ./build/examples/slo_client --port-file=build/served.port \
    --shutdown >/dev/null || SVC_RC=$?
  wait "$SVC_PID" || { echo "slo_served exited nonzero"; SVC_RC=1; }
fi
./build/examples/slo_served --port=0 --port-file=build/served-bug.port \
  --inject-frame-bug &
BUG_PID=$!
for _ in $(seq 1 100); do [[ -s build/served-bug.port ]] && break; sleep 0.1; done
if [[ ! -s build/served-bug.port ]]; then
  echo "buggy slo_served did not publish a port"
  SVC_RC=1
  kill "$BUG_PID" 2>/dev/null || true
else
  if ./build/examples/slo_client --port-file=build/served-bug.port \
      --fuzz-frames 100 --seed 7 >/dev/null 2>&1; then
    echo "frame-fuzz oracle is vacuous: --inject-frame-bug was not caught"
    SVC_RC=1
  fi
  ./build/examples/slo_client --port-file=build/served-bug.port \
    --shutdown >/dev/null 2>&1 || true
  wait "$BUG_PID" 2>/dev/null || true
fi
# The always-on flight recorder: a client stalling mid-frame past the
# daemon's stall budget must leave a structured post-mortem dump with
# the timeout reason on the daemon's stderr.
rm -f build/served-fr.port
./build/examples/slo_served --port=0 --port-file=build/served-fr.port \
  --timeout-ms=300 2> build/served-fr.err &
FR_PID=$!
for _ in $(seq 1 100); do [[ -s build/served-fr.port ]] && break; sleep 0.1; done
if [[ ! -s build/served-fr.port ]]; then
  echo "flight-recorder slo_served did not publish a port"
  SVC_RC=1
  kill "$FR_PID" 2>/dev/null || true
else
  ./build/examples/slo_client --port-file=build/served-fr.port \
    --stall-ms 1000 >/dev/null 2>&1 || true
  ./build/examples/slo_client --port-file=build/served-fr.port \
    --shutdown >/dev/null || SVC_RC=1
  wait "$FR_PID" || { echo "flight-recorder slo_served exited nonzero"; SVC_RC=1; }
  grep -q '"flight_recorder"' build/served-fr.err \
    && grep -q '"reason": "timeout"' build/served-fr.err \
    || { echo "stalled frame produced no flight-recorder timeout dump"; SVC_RC=1; }
fi
python3 scripts/promlint.py --self-test || SVC_RC=$?
# bench_service pairs a daemon with null registries (the no-clock
# contract) against a telemetry-on one in the same process, alternating
# single requests between the two so machine drift cancels — always-on
# telemetry earns its keep only if the median paired on/off QPS ratio
# stays within a few percent.
(cd build && ./bench/bench_service --out BENCH_service.json) || SVC_RC=$?
python3 scripts/bench_compare.py \
  --service-overhead build/BENCH_service.json || SVC_RC=$?

echo "=== sanitized build (ASan+UBSan) ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DSLO_ENABLE_SANITIZERS=ON "${LAUNCHER_ARGS[@]}"
cmake --build build-asan -j"$J"
# The interpreter recurses on the host stack for simulated calls; ASan's
# enlarged frames need more than the default 8 MiB to reach the
# interpreter's own MaxCallDepth trap (see DeepRecursionTrapsNotCrashes).
ulimit -s 262144 2>/dev/null || true
ASAN_RC=0
ctest --test-dir build-asan --output-on-failure -j"$J" || ASAN_RC=$?

if [[ $PLAIN_RC -ne 0 || $ASAN_RC -ne 0 || $FUZZ_RC -ne 0 || $SAMPLED_RC -ne 0 || $LINT_RC -ne 0 || $VM_RC -ne 0 || $ENGINE_RC -ne 0 || $TABLE1_RC -ne 0 || $INC_RC -ne 0 || $HEAP_RC -ne 0 || $SVC_RC -ne 0 ]]; then
  echo "=== FAILED (plain ctest: $PLAIN_RC, sanitized ctest: $ASAN_RC, fuzz: $FUZZ_RC, sampled smoke: $SAMPLED_RC, lint: $LINT_RC, vm engine: $VM_RC, engine gate: $ENGINE_RC, table 1: $TABLE1_RC, incremental: $INC_RC, heap layout: $HEAP_RC, service: $SVC_RC) ==="
  exit 1
fi
echo "=== all checks passed ==="
